"""Oracle benchmark matrix: the perf trajectory behind ``repro bench oracles``.

Runs one workload once per *strategy*, recording wall-clock time, the
deterministic operation counts and the tracemalloc peak-memory high-water
mark of each construction.  Strategies come in two families:

* the exact greedy's distance-oracle strategies
  (:mod:`repro.core.distance_oracle` — ``bounded`` / ``cached``), which are
  interchangeable by construction, so the bench cross-checks that they
  produced the *identical* spanner edge set;
* the Approximate-Greedy row (``approx-greedy``: greedy at the simulation
  stretch over a bounded-degree base spanner), whose spanner differs from
  the exact greedy's by design.  That it is exactly
  ``Greedy_{√(t·t')}(G')`` is a tier-1 test on the committed n=400
  workload (``tests/core/test_approx_greedy_properties.py``).

Euclidean workloads are built as lazy
:class:`~repro.metric.closure.MetricClosure` views, so the bench scales to
``n`` in the tens of thousands (approx-greedy rows) without materializing
the Θ(n²) complete graph.

Results are merged into a ``BENCH_oracles.json`` file keyed by workload
signature, so repeated runs at different sizes accumulate a perf trajectory
that ``scripts/check_bench_regression.py`` can diff against the committed
baseline in ``benchmarks/BENCH_oracles.json``.  :data:`SPEC` names the
matrix rows the baseline is built from (regenerate a single row with
``repro bench oracles --workloads <key>``).  The file format and how to read
it are documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.distance_oracle import ORACLE_FACTORIES
from repro.core.greedy import greedy_spanner
from repro.experiments.bench import BenchSpec, Preset, instance_and_metric
from repro.experiments.harness import traced_peak_memory
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.spanners.registry import build_spanner, stretch_epsilon
from repro.workload_kinds import workload, workload_key

DEFAULT_STRATEGIES = ("bounded", "cached")

#: The Approximate-Greedy bench strategy.
APPROX_STRATEGY = "approx-greedy"

#: Metadata counters copied verbatim into each strategy record when present.
_COUNTER_KEYS = (
    "distance_queries",
    "dijkstra_settles",
    "edges_added",
    "cache_hits",
    "cache_misses",
    "cached_bounds",
    "peak_cached_bounds",
    "balls_resumed",
    "settles_resumed",
    # Approximate-Greedy rows:
    "base_edges",
)


def _build_presets() -> dict[str, Preset]:
    """The named rows of the bench matrix, keyed by workload signature.

    Exact-oracle rows stop at n=2000 (the wall the exact path cannot cross);
    the approx-greedy rows extend the matrix to n=10⁴–2·10⁴, where greedy
    runs only over the bounded-degree base spanner's edges.
    """
    rows: tuple[tuple[dict[str, object], tuple[str, ...]], ...] = (
        (workload("uniform-euclidean", n=150), DEFAULT_STRATEGIES),
        (workload("uniform-euclidean", n=400), DEFAULT_STRATEGIES),
        (workload("uniform-euclidean", n=1000), ("cached",)),
        (workload("uniform-euclidean", n=2000), ("cached",)),
        (workload("erdos-renyi", n=120, p=0.15), DEFAULT_STRATEGIES),
        (workload("uniform-euclidean", n=400, stretch=1.5), ("cached", "approx-greedy")),
        (workload("uniform-euclidean", n=2000, stretch=1.5), ("approx-greedy",)),
        (workload("uniform-euclidean", n=20000, stretch=1.5), ("approx-greedy",)),
        (workload("clustered-euclidean", n=10000, clusters=50, stretch=1.5), ("approx-greedy",)),
        (workload("grid-euclidean", side=100, stretch=1.5), ("approx-greedy",)),
        (workload("uniform-euclidean", n=500, dim=8, stretch=1.9), ("approx-greedy",)),
    )
    return {workload_key(row): Preset(row, strategies) for row, strategies in rows}


def _run_strategy(
    name: str,
    graph: WeightedGraph,
    metric: Optional[FiniteMetric],
    stretch: float,
):
    """Build one spanner with the named strategy; returns ``(spanner, extras)``.

    ``approx-greedy`` runs through the registry adapter, which picks the base
    spanner and maps ``stretch`` to ``ε`` with
    :func:`~repro.spanners.registry.stretch_epsilon` (stretches of 2 and above
    are clamped below 1); the ``ε`` used is recorded as ``epsilon``.
    """
    if name != APPROX_STRATEGY:
        return greedy_spanner(graph, stretch, oracle=name), {}
    if metric is None:
        raise ValueError(
            f"strategy {name!r} runs Approximate-Greedy and needs a metric "
            f"workload, not {graph!r}"
        )
    epsilon = stretch_epsilon(stretch)
    spanner = build_spanner(APPROX_STRATEGY, metric, stretch, epsilon=epsilon)
    return spanner, {"epsilon": epsilon}


def run_oracle_matrix(
    workload: dict[str, object],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    *,
    measure_memory: bool = True,
) -> dict[str, object]:
    """Run one spanner construction per strategy over ``workload``.

    Exact-oracle strategies run the greedy spanner; ``approx-greedy`` runs
    Algorithm Approximate-Greedy.  Returns one run record: per-strategy
    seconds, operation counts and (with ``measure_memory``, the default) the
    tracemalloc peak-memory high-water mark of the construction, the
    wall-clock speedup and settle reduction relative to the ``"bounded"``
    baseline strategy (when benched), and the edge-set cross-check verdict
    ``identical_edge_sets`` within the exact family.  Memory tracing roughly
    doubles the wall-clock numbers; they remain comparable within one run.
    """
    graph, metric = instance_and_metric(workload)
    stretch = float(workload["stretch"])

    records: dict[str, dict[str, float]] = {}
    exact_edges: Optional[WeightedGraph] = None
    identical = True
    for name in strategies:
        start = time.perf_counter()
        if measure_memory:
            with traced_peak_memory() as read_peak:
                spanner, extras = _run_strategy(name, graph, metric, stretch)
            peak: Optional[int] = read_peak()
        else:
            spanner, extras = _run_strategy(name, graph, metric, stretch)
            peak = None
        seconds = time.perf_counter() - start
        record: dict[str, float] = {"seconds": seconds}
        record.update(extras)
        for key in _COUNTER_KEYS:
            if key in spanner.metadata:
                record[key] = spanner.metadata[key]
        record["spanner_edges"] = float(spanner.number_of_edges)
        if peak is not None:
            record["peak_memory_bytes"] = float(peak)
        records[name] = record
        if name != APPROX_STRATEGY:
            if exact_edges is None:
                exact_edges = spanner.subgraph
            elif not spanner.subgraph.same_edges(exact_edges):
                identical = False

    result: dict[str, object] = {
        "workload": dict(workload),
        "strategies": records,
        "identical_edge_sets": identical,
        # Tracing costs several-fold wall clock, so rows measured with and
        # without it are not time-comparable; the flag keeps the trajectory
        # honest when runs with different settings are merged.
        "memory_traced": bool(measure_memory),
    }
    if "bounded" in records:
        base = records["bounded"]
        result["speedup_vs_bounded"] = {
            name: base["seconds"] / rec["seconds"]
            for name, rec in records.items()
            if name != "bounded" and rec["seconds"] > 0
        }
        result["settle_reduction_vs_bounded"] = {
            name: base["dijkstra_settles"] / rec["dijkstra_settles"]
            for name, rec in records.items()
            if name != "bounded" and rec.get("dijkstra_settles", 0) > 0
        }
    return result


SPEC = BenchSpec(
    name="oracles",
    description=(
        "Greedy-spanner distance-oracle benchmark trajectory; "
        "see docs/PERFORMANCE.md. Regenerate with `repro bench oracles`."
    ),
    label="oracle",
    run=run_oracle_matrix,
    kinds=("uniform-euclidean", "clustered-euclidean", "grid-euclidean", "erdos-renyi"),
    presets=_build_presets(),
    counters=(
        "dijkstra_settles",
        "distance_queries",
    ),
    flags=("identical_edge_sets",),
    row_fields=("speedup_vs_bounded",),
    strategy_names=tuple(sorted((*ORACLE_FACTORIES, APPROX_STRATEGY))),
    default_strategies=lambda workload: DEFAULT_STRATEGIES,
    run_options=frozenset({"measure_memory"}),
)
