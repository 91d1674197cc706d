"""One harness for every overlay comparison: broadcast, routing, synchronizer.

Each protocol has one evaluator (:func:`broadcast_over_overlay`,
:func:`evaluate_routing`, :func:`synchronizer_cost`); this module runs any of
them over a ``{label: overlay}`` dict with shared inputs, and adds the
registry-driven entry point the experiments, examples and the overlay bench
share:

* :func:`compare_overlays` — run any subset of the three protocols over the
  same overlays with one shared demand set / source;
* :func:`overlays_from_builders` — materialize the overlay dict itself from
  :mod:`repro.spanners.registry` builder names, so "compare the Θ-graph,
  Yao-graph and MST overlays at stretch 1.5" is one call whatever the
  workload kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.distributed.broadcast import BroadcastResult, broadcast_over_overlay
from repro.distributed.routing import RoutingReport, evaluate_routing, random_demands
from repro.distributed.synchronizer import SynchronizerCost, synchronizer_cost
from repro.graph.weighted_graph import Vertex, WeightedGraph
from repro.spanners.registry import Workload, as_graph, build_spanner

PROTOCOLS = ("broadcast", "routing", "synchronizer")


@dataclass
class OverlayComparison:
    """Per-protocol results of one :func:`compare_overlays` run.

    Each list holds one entry per overlay, in the overlay dict's iteration
    order; protocols that were not requested stay empty.
    """

    broadcast: list[BroadcastResult] = field(default_factory=list)
    routing: list[RoutingReport] = field(default_factory=list)
    synchronizer: list[SynchronizerCost] = field(default_factory=list)


def compare_overlays(
    graph: Optional[WeightedGraph],
    overlays: dict[str, WeightedGraph],
    *,
    protocols: Sequence[str] = PROTOCOLS,
    source: Optional[Vertex] = None,
    demands: Optional[list[tuple[Vertex, Vertex]]] = None,
    demand_count: int = 100,
    seed: Optional[int] = None,
    pulses: int = 10,
    diameter_method: str = "exact",
) -> OverlayComparison:
    """Run the requested protocols over every overlay with shared inputs.

    Parameters
    ----------
    graph:
        The full network the overlays approximate; the stretch reference for
        broadcast delay and routing.  May be ``None`` when only the
        ``"synchronizer"`` protocol (which needs no reference) is requested.
    overlays:
        ``{label: overlay graph}`` on the same vertex set as ``graph``.
    protocols:
        Any subset of ``("broadcast", "routing", "synchronizer")``.
    source, demands, demand_count, seed:
        Broadcast source (default: first vertex) and routing demand set
        (default: ``demand_count`` random pairs drawn with ``seed``) —
        shared across all overlays so the comparison is apples to apples.
    pulses, diameter_method:
        Synchronizer accounting knobs (see
        :func:`~repro.distributed.synchronizer.synchronizer_cost`).
    """
    unknown = [p for p in protocols if p not in PROTOCOLS]
    if unknown:
        raise ValueError(f"unknown protocols {unknown!r}; valid: {PROTOCOLS}")
    if graph is None and ("broadcast" in protocols or "routing" in protocols):
        raise ValueError("broadcast and routing comparisons need the full graph")

    if "broadcast" in protocols and source is None:
        source = next(iter(graph.vertices()))
    if "routing" in protocols and demands is None:
        demands = random_demands(graph, demand_count, seed=seed)

    comparison = OverlayComparison()
    for name, overlay in overlays.items():
        if "broadcast" in protocols:
            comparison.broadcast.append(
                broadcast_over_overlay(graph, overlay, source, name=name)
            )
        if "routing" in protocols:
            comparison.routing.append(
                evaluate_routing(graph, overlay, demands, name=name)
            )
        if "synchronizer" in protocols:
            comparison.synchronizer.append(
                synchronizer_cost(
                    overlay, name=name, pulses=pulses, diameter_method=diameter_method
                )
            )
    return comparison


def overlays_from_builders(
    workload: Workload,
    builders: Sequence[str] | dict[str, dict[str, object]],
    stretch: float,
    *,
    include_base: bool = True,
    base_label: str = "full-graph",
) -> dict[str, WeightedGraph]:
    """Build one overlay per registry builder name over the same workload.

    ``builders`` is either a sequence of registry names or a mapping
    ``{label: {"builder": name, **params}}`` when labels or per-builder
    parameters must differ from the defaults.  With ``include_base`` the
    workload itself (metrics as their lazy complete-graph closure) is
    prepended under ``base_label`` — the stretch-1 reference overlay of
    every comparison.
    """
    overlays: dict[str, WeightedGraph] = {}
    if include_base:
        overlays[base_label] = as_graph(workload)
    if isinstance(builders, dict):
        for label, spec in builders.items():
            params = dict(spec)
            name = str(params.pop("builder", label))
            overlays[label] = build_spanner(name, workload, stretch, **params).subgraph
    else:
        for name in builders:
            overlays[name] = build_spanner(name, workload, stretch).subgraph
    return overlays
