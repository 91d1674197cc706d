"""Construction benchmark matrix: the perf trajectory behind ``repro bench build``.

PRs 1–5 put verification, overlays and oracles on indexed, sharded fast
paths; construction itself — the greedy loop of Algorithm 1 — remained the
last pure-python bottleneck.  This bench measures end-to-end greedy
construction per *strategy* on one shared workload instance:

* ``greedy-edge-list`` — the per-edge bounded-ball list path: one cutoff
  Dijkstra ball per examined edge, no amortization.  This is the hot loop
  the band filter replaces, and the denominator of the gated
  ``build_speedup``.
* ``greedy-serial`` — the repo's default serial path (cached oracle), the
  strongest sequential baseline; its ratio is reported as
  ``cached_speedup`` so the trajectory stays honest about how much of the
  win is amortization (shared with the oracle) versus banding.
* ``csr-parallel-w1`` — :func:`repro.core.parallel_greedy.parallel_greedy_spanner`:
  the band filter + canonical replay, in one process (the label predates
  the filter's move from CSR snapshots to the live coverage rows and is
  kept as the committed trajectory's key).  ``cpu_count`` is recorded
  verbatim.

Every strategy must produce the *byte-identical* greedy edge set — the
``builds_match`` cross-check flag that ``scripts/check_bench_regression.py``
fails on — and the deterministic ``build_*`` counters are diffed against the
committed baseline in ``benchmarks/BENCH_build.json`` exactly like the
oracle/overlay/verify trajectories.  Rows marked ``gate_build_speedup``
additionally hold ``build_speedup`` to the 3× bar of :data:`SPEC`.

The scale rows are ``bucketed-geometric`` workloads, pinned by average
degree (:mod:`repro.workload_kinds`, which also builds them for the query
bench and the job service): the O(n + m) cell-grid generator on numpy
arrays, where at ``n = 10⁵`` the quadratic all-pairs generator would dwarf
construction itself.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence

from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.parallel_greedy import (
    parallel_greedy_spanner,
    parallel_greedy_spanner_of_metric,
)
from repro.core.spanner import Spanner
from repro.experiments.bench import BenchSpec, Gate, Preset, instance_and_metric
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.workload_kinds import workload, workload_key

#: Strategy order is execution order; later derived ratios assume it.
DEFAULT_STRATEGIES = (
    "greedy-edge-list",
    "greedy-serial",
    "csr-parallel-w1",
)


def _build_presets() -> dict[str, Preset]:
    """The named rows of the construction matrix.

    The first
    two rows are CI-sized; the ``n = 2·10⁴`` row is the tuning row of
    docs/PERFORMANCE.md; the ``n = 10⁵`` row is the committed scale evidence
    and the only row whose ``build_speedup`` the regression gate enforces
    (the per-edge baseline alone costs minutes there — regenerate offline,
    not in CI).
    """
    rows: tuple[tuple[dict[str, object], tuple[str, ...], bool], ...] = (
        (workload("bucketed-geometric", n=300, degree=16.0), DEFAULT_STRATEGIES, False),
        # The metric row streams the complete graph; the per-edge baseline
        # pays Θ(n²) balls, so it stays CI-sized.
        (workload("uniform-euclidean", n=150, stretch=1.5), DEFAULT_STRATEGIES, False),
        (workload("bucketed-geometric", n=20000, degree=96.0), DEFAULT_STRATEGIES, False),
        (workload("bucketed-geometric", n=100000, degree=96.0), DEFAULT_STRATEGIES, True),
        # The stretch row toward n = 10⁶: the per-edge baseline is
        # dropped (the edge-list path alone would cost the better part of an
        # hour) so the row stays regenerable inside one offline bench budget;
        # builds_match still cross-checks the band path against the serial
        # builder edge-for-edge.
        (
            workload("bucketed-geometric", n=500000, degree=16.0),
            ("greedy-serial", "csr-parallel-w1"),
            False,
        ),
    )
    return {workload_key(row): Preset(row, strategies, gated) for row, strategies, gated in rows}


def _canonical_edges(spanner: Spanner) -> list[tuple[object, object, float]]:
    """The spanner's edge set in a canonical, exactly-comparable form."""
    edges = []
    for u, v, weight in spanner.subgraph.edges():
        a, b = (u, v) if repr(u) <= repr(v) else (v, u)
        edges.append((repr(a), repr(b), float(weight)))
    edges.sort()
    return edges


def _run_strategy(
    name: str,
    graph: WeightedGraph,
    metric: Optional[FiniteMetric],
    stretch: float,
) -> Spanner:
    if name == "greedy-edge-list":
        if metric is not None:
            return greedy_spanner_of_metric(metric, stretch, oracle="bounded")
        return greedy_spanner(graph, stretch, oracle="bounded")
    if name == "greedy-serial":
        if metric is not None:
            return greedy_spanner_of_metric(metric, stretch)
        return greedy_spanner(graph, stretch)
    if name == "csr-parallel-w1":
        if metric is not None:
            return parallel_greedy_spanner_of_metric(metric, stretch)
        return parallel_greedy_spanner(graph, stretch)
    raise ValueError(f"unknown build strategy {name!r}")


def run_build_bench(
    workload: dict[str, object],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> dict[str, object]:
    """Build the greedy spanner once per strategy; returns one run record.

    The record mirrors the oracle/overlay/verify bench shape (``"strategies"``
    keyed by name) so :func:`scripts.check_bench_regression.find_regressions`
    gates all four trajectories with the same code.  The workload instance is
    generated once and shared; every strategy's edge set is compared exactly
    (``builds_match``).
    """
    graph, metric = instance_and_metric(workload)
    stretch = float(workload["stretch"])

    records: dict[str, dict[str, float]] = {}
    edge_sets: dict[str, list] = {}
    for name in strategies:
        start = time.perf_counter()
        spanner = _run_strategy(name, graph, metric, stretch)
        seconds = time.perf_counter() - start
        record: dict[str, float] = {"build_seconds": seconds}
        record.update(
            {k: float(v) for k, v in spanner.metadata.items() if isinstance(v, (int, float))}
        )
        record["spanner_edges"] = float(spanner.number_of_edges)
        records[name] = record
        edge_sets[name] = _canonical_edges(spanner)

    result: dict[str, object] = {
        "workload": dict(workload),
        "strategies": records,
        "n": graph.number_of_vertices,
        "edges": float(graph.number_of_edges),
        "cpu_count": float(os.cpu_count() or 1),
    }
    if len(edge_sets) > 1:
        reference = next(iter(edge_sets.values()))
        # Exact comparison is intentional: the parallel builder's replay
        # discipline guarantees byte-identical edge sets, not just equal
        # weights up to rounding.
        result["builds_match"] = all(edges == reference for edges in edge_sets.values())
    if "greedy-edge-list" in records and "csr-parallel-w1" in records:
        csr_seconds = records["csr-parallel-w1"]["build_seconds"]
        if csr_seconds > 0:
            result["build_speedup"] = (
                records["greedy-edge-list"]["build_seconds"] / csr_seconds
            )
    if "greedy-serial" in records and "csr-parallel-w1" in records:
        csr_seconds = records["csr-parallel-w1"]["build_seconds"]
        if csr_seconds > 0:
            result["cached_speedup"] = (
                records["greedy-serial"]["build_seconds"] / csr_seconds
            )
    return result


SPEC = BenchSpec(
    name="build",
    description=(
        "Greedy construction benchmark trajectory (per-strategy build "
        "wall-clock + deterministic band/filter counters); see "
        "docs/PERFORMANCE.md. Regenerate with `repro bench build`."
    ),
    label="strategy",
    run=run_build_bench,
    kinds=("bucketed-geometric", "uniform-euclidean", "clustered-euclidean", "grid-euclidean"),
    presets=_build_presets(),
    counters=("build_filter_settles", "build_replay_settles", "build_candidate_edges"),
    flags=("builds_match",),
    gate=Gate("gate_build_speedup", "build_speedup", "min", 3.0),
    strategy_names=DEFAULT_STRATEGIES,
)
