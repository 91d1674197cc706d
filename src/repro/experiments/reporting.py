"""Plain-text table rendering for experiment results.

The benchmark harness prints the same kind of rows the paper's claims are
about (edge counts, lightness, degrees, ratios).  Rendering is kept trivial —
fixed-width text tables — because the repository must run without plotting
libraries; the tables ``scripts/regenerate_experiments.py`` writes are
produced from the same code.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_value(value: object, *, precision: int = 3) -> str:
    """Format a cell value: floats get fixed precision, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render a list of dict rows as a fixed-width text table.

    Parameters
    ----------
    rows:
        The table rows; missing keys render as empty cells.
    columns:
        Column order; defaults to the union of keys in first-seen order.
    title:
        Optional title printed above the table.
    precision:
        Decimal places for float cells.
    """
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    columns = list(columns)

    rendered_rows = [
        [format_value(row.get(column, ""), precision=precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(column), *(len(r[i]) for r in rendered_rows)) if rendered_rows else len(column)
        for i, column in enumerate(columns)
    ]

    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    lines.append(header)
    lines.append(separator)
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)

