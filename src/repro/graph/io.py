"""Atomic file writers.

Every committed artifact in the repository (bench trajectories, job
records, cache manifests) is written through :func:`atomic_write_text` or
:func:`atomic_write_json`, so an interrupted run never leaves a truncated
file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


def atomic_write_text(
    path: str | Path, text: str, *, encoding: str = "utf-8", exclusive: bool = False
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary; a crash mid-write leaves the old
    file untouched and at worst an orphaned ``.tmp`` sibling, never a
    truncated or interleaved destination.  Every committed artifact in the
    repository (bench trajectories, job records, cache manifests) goes
    through here so an interrupted run can never corrupt a baseline.
    ``exclusive=True`` links instead (``os.link``): :class:`FileExistsError`
    if ``path`` exists, never an overwrite.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if exclusive:
            os.link(tmp_name, path)
            os.unlink(tmp_name)
        else:
            os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: str | Path,
    document: Any,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
    exclusive: bool = False,
) -> None:
    """Serialise ``document`` as JSON and write it atomically to ``path``.

    The single write path of every ``BENCH_*.json`` emitter and of the
    service layer's job/manifest records: readers always observe either the
    previous complete document or the new complete document.
    """
    text = json.dumps(document, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text, exclusive=exclusive)
