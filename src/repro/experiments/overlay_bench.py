"""Overlay benchmark matrix: the perf trajectory behind ``repro bench overlays``.

The Section 1.1 applications — broadcast, compact routing, synchronizers —
are what light, sparse spanners are *for*; this bench measures them end to
end on the indexed overlay engine.  One run takes a workload (a graph or a
metric), builds one overlay per requested registry builder
(:mod:`repro.spanners.registry`), and drives all three protocols over each
overlay with shared inputs:

* **broadcast** — an indexed flood plus echo convergecast: message count,
  weighted communication cost, last-delivery delay and its stretch against
  the source's true eccentricity;
* **routing** — flat numpy next-hop tables restricted to the demand
  destinations, route-stretch percentiles over a seeded demand set, and the
  tables' byte footprint;
* **synchronizer** — per-pulse α-cost on the overlay; the pulse delay is the
  exact weighted diameter up to ``n = 2000`` and the double-sweep lower
  bound beyond (recorded in the run).

Besides wall-clock seconds, every row records the deterministic
``overlay_*`` operation counts (heap settles and event-loop pops), which
``scripts/check_bench_regression.py`` diffs against the committed baseline
in ``benchmarks/BENCH_overlays.json`` exactly like the oracle counters —
machine-independent, noise-free regression gating.

Metric workloads never materialize the Θ(n²) complete graph: overlays are
built from the streamed registry constructions, and the stretch references
(eccentricity, per-demand optimal distance) come straight from the metric —
which is what lets the matrix reach ``n = 10⁴``, where the seed dict
simulator stopped around ``n = 400``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.distributed.broadcast import broadcast_over_overlay
from repro.distributed.routing import RoutingScheme, evaluate_routing, random_demands
from repro.distributed.synchronizer import synchronizer_cost
from repro.experiments.bench import BenchSpec, Preset, key_parser
from repro.experiments.oracle_bench import (
    KEY_FORMATS as _ORACLE_KEY_FORMATS,
    _build_instance as _build_oracle_instance,
    euclidean_workload,
    workload_key as _oracle_workload_key,
)
from repro.graph.generators import random_geometric_graph
from repro.graph.shortest_paths import single_source_distances
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.spanners.registry import build_spanner, builder_names

#: Parameter pins applied whenever a builder is requested by bare name.
#: Baswana–Sen's ``k`` is pinned to 2 (a 3-spanner): deriving it from a
#: sub-3 workload stretch would give ``k = 1``, the degenerate identity
#: overlay — this mirrors the E7/E9 experiments, which bench the 3-spanner
#: as the sparse-but-heavier baseline at every stretch.  The seed pin keeps
#: the randomized construction's ``overlay_*`` operation counts
#: deterministic, which the regression gate requires.
DEFAULT_BUILDER_PARAMS: dict[str, dict[str, object]] = {
    "baswana-sen": {"k": 2, "seed": 7},
}

#: Builders benched by default on graph workloads.
DEFAULT_GRAPH_BUILDERS = ("greedy", "baswana-sen", "mst")


def normalize_builders(
    builders: Sequence[str] | dict[str, dict[str, object]],
) -> dict[str, dict[str, object]]:
    """Expand bare builder names into ``{label: params}`` with the default pins.

    An explicit mapping is taken verbatim — callers that spell out params
    own all of them.
    """
    if isinstance(builders, dict):
        return {label: dict(spec) for label, spec in builders.items()}
    return {name: dict(DEFAULT_BUILDER_PARAMS.get(name, {})) for name in builders}

#: Builders benched by default on planar Euclidean workloads.
DEFAULT_METRIC_BUILDERS = ("theta", "yao", "mst", "greedy")

#: Exact-diameter cutoff: beyond this the synchronizer row records the
#: double-sweep lower bound (the exact diameter is the only quadratic step).
EXACT_DIAMETER_LIMIT = 2000


def geometric_workload(
    n: int = 300, radius: float = 0.12, seed: int = 7, stretch: float = 1.5
) -> dict[str, object]:
    """A random geometric ("wireless") graph workload, the E7 setting."""
    return {
        "kind": "geometric",
        "n": int(n),
        "radius": float(radius),
        "seed": int(seed),
        "stretch": float(stretch),
    }


def workload_key(workload: dict[str, object]) -> str:
    """Stable run key of an overlay workload (joins baseline and fresh runs)."""
    if workload["kind"] == "geometric":
        return "geometric-n{}-r{}-seed{}-t{}".format(
            int(workload["n"]), float(workload["radius"]), int(workload["seed"]),
            float(workload["stretch"]),
        )
    return _oracle_workload_key(workload)


def _build_instance(
    workload: dict[str, object],
) -> tuple[WeightedGraph, Optional[FiniteMetric]]:
    """Instantiate a workload as ``(graph, metric)`` (``metric`` None for graphs)."""
    if workload["kind"] == "geometric":
        graph = random_geometric_graph(
            int(workload["n"]), float(workload["radius"]), seed=int(workload["seed"])
        )
        return graph, None
    return _build_oracle_instance(workload)


#: Key templates: the oracle bench's four kinds plus random geometric graphs.
KEY_FORMATS = _ORACLE_KEY_FORMATS + (
    ("geometric-n{n}-r{radius}-seed{seed}-t{stretch}", geometric_workload),
)


def _build_presets() -> dict[str, Preset]:
    """The named rows of the overlay matrix, keyed by workload signature.

    The first two rows are CI-sized (regenerated and gated on every run);
    the ``n = 2000`` and ``n = 10⁴`` rows are the committed evidence that
    the indexed engine carries all four registry overlays far beyond the
    seed simulator's ``n ≈ 400`` ceiling.
    """
    rows: tuple[tuple[dict[str, object], Sequence[str] | dict[str, dict[str, object]]], ...] = (
        (geometric_workload(n=300), DEFAULT_GRAPH_BUILDERS),
        (euclidean_workload(n=400, stretch=1.5), DEFAULT_METRIC_BUILDERS),
        (euclidean_workload(n=2000, stretch=1.5), ("theta", "yao", "mst", "approx-greedy")),
        (euclidean_workload(n=10000, stretch=1.5), ("theta", "yao", "mst", "approx-greedy")),
    )
    return {workload_key(workload): Preset(workload, strategies) for workload, strategies in rows}


def run_overlay_bench(
    workload: dict[str, object],
    builders: Sequence[str] | dict[str, dict[str, object]],
    *,
    demand_count: int = 32,
    demand_seed: int = 97,
    pulses: int = 10,
) -> dict[str, object]:
    """Bench every builder's overlay on one workload; returns one run record.

    ``builders`` is a sequence of registry names (expanded through
    :func:`normalize_builders`, so e.g. a bare ``"baswana-sen"`` gets its
    pinned ``k``/``seed``), or a mapping ``{label: {"builder": name,
    **params}}`` when per-builder parameters must override the defaults
    (``"builder"`` defaults to the label).  The record mirrors the oracle
    bench's shape (``"strategies"`` keyed by builder label) so
    :func:`scripts.check_bench_regression.find_regressions` gates both
    files with the same code.
    """
    graph, metric = _build_instance(workload)
    stretch = float(workload["stretch"])
    n = graph.number_of_vertices

    source = next(iter(graph.vertices()))
    demands = random_demands(graph, demand_count, seed=demand_seed)
    destinations = sorted({destination for _, destination in demands}, key=repr)
    diameter_method = "exact" if n <= EXACT_DIAMETER_LIMIT else "double-sweep"

    # Stretch references, computed once per workload.  For metrics both come
    # straight from the point set (the complete graph's shortest path is the
    # direct edge); a Dijkstra over the lazy closure would be Θ(n²).
    if metric is not None:
        if hasattr(metric, "distances_from"):
            farthest_optimal = float(max(metric.distances_from(source), default=0.0))
        else:
            farthest_optimal = max(
                (metric.distance(source, point) for point in metric.points()
                 if point != source),
                default=0.0,
            )
        optimal_distance = metric.distance
    else:
        reference = single_source_distances(graph, source)
        farthest_optimal = max(reference.values(), default=0.0)
        optimal_distance = None  # per-demand Dijkstra in the full graph

    records: dict[str, dict[str, float]] = {}
    for name, spec in normalize_builders(builders).items():
        params = dict(spec)
        builder_name = str(params.pop("builder", name))
        start = time.perf_counter()
        spanner = build_spanner(
            builder_name, metric if metric is not None else graph, stretch, **params
        )
        build_seconds = time.perf_counter() - start
        overlay = spanner.subgraph

        start = time.perf_counter()
        broadcast = broadcast_over_overlay(
            graph, overlay, source, name=name, farthest_optimal=farthest_optimal,
        )
        scheme = RoutingScheme(overlay, destinations=destinations)
        routing = evaluate_routing(
            graph, overlay, demands, name=name, scheme=scheme,
            optimal_distance=optimal_distance,
        )
        synchronizer = synchronizer_cost(
            overlay, name=name, pulses=pulses, diameter_method=diameter_method,
        )
        protocol_seconds = time.perf_counter() - start

        record: dict[str, float] = {
            "build_seconds": build_seconds,
            "protocol_seconds": protocol_seconds,
            "spanner_edges": float(overlay.number_of_edges),
            "overlay_weight": overlay.total_weight(),
            "max_ports": float(routing.max_ports),
            # broadcast
            "broadcast_cost": broadcast.statistics.total_communication_cost,
            "max_delay": broadcast.max_delivery_delay,
            "delay_stretch": broadcast.stretch_vs_optimal,
            "reached": float(broadcast.vertices_reached),
            "echo_cost": broadcast.echo.cost,
            "echo_completion": broadcast.echo.completion_time,
            # routing
            "route_stretch_p50": routing.stretch_p50,
            "route_stretch_p90": routing.stretch_p90,
            "route_stretch_max": routing.max_route_stretch,
            "total_routed_weight": routing.total_routed_weight,
            "table_bytes": float(routing.table_bytes),
            # synchronizer
            "messages_per_pulse": float(synchronizer.messages_per_pulse),
            "communication_per_pulse": synchronizer.communication_per_pulse,
            "pulse_delay": synchronizer.pulse_delay,
            # deterministic operation counts (the regression gate's keys)
            "overlay_broadcast_messages": float(broadcast.statistics.messages_sent),
            "overlay_broadcast_events": float(broadcast.statistics.rounds_processed),
            "overlay_route_settles": float(scheme.build_settles),
            "overlay_sync_settles": float(synchronizer.settles),
        }
        records[name] = record

    return {
        "workload": dict(workload),
        "strategies": records,
        "n": n,
        "demands": len(demands),
        "pulses": pulses,
        "diameter_method": diameter_method,
    }


SPEC = BenchSpec(
    name="overlays",
    description=(
        "Spanner-overlay benchmark trajectory (broadcast / routing / "
        "synchronizer over registry builders); see docs/PERFORMANCE.md. "
        "Regenerate with `repro bench overlays`."
    ),
    label="builder",
    run=run_overlay_bench,
    workload_key=workload_key,
    parse_key=key_parser(workload_key, *KEY_FORMATS),
    presets=_build_presets(),
    counters=(
        "overlay_broadcast_messages",
        "overlay_broadcast_events",
        "overlay_route_settles",
        "overlay_sync_settles",
    ),
    strategy_names=tuple(builder_names()),
    default_strategies=lambda workload: (
        DEFAULT_GRAPH_BUILDERS
        if workload["kind"] in ("geometric", "erdos-renyi")
        else DEFAULT_METRIC_BUILDERS
    ),
)
