"""One framework for the six ``BENCH_*.json`` perf trajectories.

Each bench module (``oracle_bench``, ``overlay_bench``, ``verify_bench``,
``build_bench``, ``query_bench``, ``service_bench``) keeps its ``run_*``
function and describes its trajectory with one :class:`BenchSpec`, which
names the workload kinds it accepts.  The workloads themselves — their
dicts, keys, key parser and instances — are :mod:`repro.workload_kinds`,
shared with the job service and the CLI.  The registry
:data:`BENCHES` maps a bench name to that spec, and everything around the
runs reads from it: ``repro bench <name>`` (run rows, print them, merge them
into ``BENCH_<name>.json``) and ``scripts/check_bench_regression.py`` (which
counters, cross-check flags and bars gate the document).

A document is ``{"schema": 1, "description": ..., "runs": {key: run}}``: one
run record per workload key, latest run wins.  A key is the stable name of
one workload (``"geometric-n300-r0.12-seed7-t1.5"``); every spec parses
any well-formed key of its kinds back into its workload, so a row that is
not a preset runs from its key alone.  See docs/PERFORMANCE.md for how to read the
documents.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from repro.errors import BenchDocumentError
from repro.graph.io import atomic_write_json
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.workload_kinds import build_instance, parse_key, workload_key

SCHEMA_VERSION = 1

#: Bench name -> module (under ``repro.experiments``) that defines its ``SPEC``.
BENCH_MODULES = {
    "oracles": "oracle_bench",
    "overlays": "overlay_bench",
    "verify": "verify_bench",
    "build": "build_bench",
    "queries": "query_bench",
    "service": "service_bench",
}


class Gate(NamedTuple):
    """A bar on one run field, enforced on the rows whose ``marker`` is true."""

    marker: str
    field: str
    op: str  # "min": field >= bar; "max": field <= bar
    bar: float

    def violated(self, run: Mapping[str, object]) -> bool:
        value = run.get(self.field)
        if value is None:
            return True
        return value < self.bar if self.op == "min" else value > self.bar


@dataclass(frozen=True)
class Preset:
    """A named matrix row: its workload, default strategies, gate and extra
    ``run_*`` keyword arguments (fields that change the record but not the key)."""

    workload: dict[str, object]
    strategies: tuple[str, ...] = ()
    gated: bool = False
    extra: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchSpec:
    """Everything the CLI and the regression checker know about one bench.

    ``run`` is called as ``run(workload, strategies, **options)`` (or
    ``run(workload, **options)`` when ``strategy_names`` is empty);
    ``run_options`` names the common options it accepts (``workers``,
    ``measure_memory``).  ``counters`` are the deterministic per-strategy
    operation counts, ``flags`` the cross-check verdicts that must be true,
    and ``gate`` the one bar checked on rows marked ``gate.marker``.
    ``row_fields`` are run fields that map a strategy name to a value shown
    as a column of that strategy's table row.  A key
    that is not a preset runs ``default_strategies(workload)``, or every
    strategy when that is not given.  ``kinds`` are the workload kinds its
    keys may name (:data:`repro.workload_kinds.KINDS`).
    """

    name: str
    description: str
    label: str
    run: Callable[..., dict]
    kinds: tuple[str, ...]
    presets: Mapping[str, Preset]
    counters: tuple[str, ...]
    flags: tuple[str, ...] = ()
    gate: Optional[Gate] = None
    row_fields: tuple[str, ...] = ()
    strategy_names: tuple[str, ...] = ()
    default_strategies: Optional[Callable[[dict], tuple[str, ...]]] = None
    run_options: frozenset[str] = frozenset()

    def workload_key(self, workload: Mapping[str, object]) -> str:
        """The run key of ``workload``."""
        return workload_key(workload)

    def parse_key(self, key: str) -> dict[str, object]:
        """The workload of ``key``; :class:`~repro.errors.UnknownWorkloadError`
        unless it is a well-formed key of one of :attr:`kinds`."""
        return parse_key(key, self.kinds)

    def run_key(
        self, key: str, strategies: Optional[Sequence[str]] = None, **options: object
    ) -> dict[str, object]:
        """Run one row: a preset (with its strategies, gate and extras) or
        any other well-formed key (with the bench's default strategies)."""
        preset = self.presets.get(key)
        if preset is None:
            workload = self.parse_key(key)
            defaults = self.strategy_names
            if self.default_strategies is not None:
                defaults = self.default_strategies(workload)
            preset = Preset(workload, defaults)
        kwargs = {**preset.extra, **options}
        if self.strategy_names:
            run = self.run(preset.workload, tuple(strategies or preset.strategies), **kwargs)
        else:
            run = self.run(preset.workload, **kwargs)
        if preset.gated:
            run[self.gate.marker] = True
        return run

    def flag_values(self, run: Mapping[str, object]) -> dict[str, bool]:
        """The cross-check flags ``run`` recorded (each bench records only
        the flags its strategies could check)."""
        return {flag: bool(run[flag]) for flag in self.flags if flag in run}


def instance_and_metric(
    workload: Mapping[str, object],
) -> tuple[WeightedGraph, Optional[FiniteMetric]]:
    """A workload's instance and, for a point-set kind, its metric (else ``None``)."""
    graph = build_instance(workload)
    return graph, graph.metric if isinstance(graph, MetricClosure) else None


def load_document(path: str | Path) -> dict[str, object]:
    """Read one BENCH document, failing closed.

    Raises :class:`~repro.errors.BenchDocumentError` if the file cannot be
    read, is not JSON, is not a JSON object or has no ``runs`` mapping.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise BenchDocumentError(path, str(error)) from error
    if not isinstance(document, dict) or not isinstance(document.get("runs"), dict):
        raise BenchDocumentError(path, "expected a JSON object with a 'runs' mapping")
    return document


def merge_run_into_file(
    path: str | Path, run: dict[str, object], spec: BenchSpec
) -> dict[str, object]:
    """Merge ``run`` into the trajectory at ``path`` (created if missing).

    The run replaces any earlier run of the same workload key.  An existing
    file that :func:`load_document` rejects raises and is left untouched.
    Returns the full document.
    """
    path = Path(path)
    if path.exists():
        document = load_document(path)
    else:
        document = {"schema": SCHEMA_VERSION, "description": spec.description, "runs": {}}
    document["runs"][spec.workload_key(run["workload"])] = run
    atomic_write_json(path, document)
    return document


def render_rows(run: Mapping[str, object], spec: BenchSpec) -> list[dict[str, object]]:
    """Flatten a run record into report-table rows (one per strategy)."""
    rows = []
    for name, record in run["strategies"].items():
        row = {spec.label: name, **record}
        for field_name in spec.row_fields:
            if name in run.get(field_name, {}):
                row[field_name] = run[field_name][name]
        rows.append(row)
    return rows


def __getattr__(name: str) -> dict[str, BenchSpec]:
    # BENCHES imports all six bench modules, so it is built on first use:
    # importing this module (as every bench module does) stays cheap.
    if name != "BENCHES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    specs = {
        bench: importlib.import_module(f"repro.experiments.{module}").SPEC
        for bench, module in BENCH_MODULES.items()
    }
    globals()["BENCHES"] = specs
    return specs
