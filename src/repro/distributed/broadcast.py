"""Broadcast over a spanner overlay: the Section 1.1 application.

A single source floods a message over an overlay graph; every vertex forwards
the message to all neighbours the first time it receives it.  Run on
different overlays of the same underlying network, the flood exhibits exactly
the trade-off the paper describes:

* the **full graph** delivers fastest (stretch 1) but at maximal
  communication cost (every edge carries the message),
* the **MST** has minimal communication cost but can be very slow (stretch up
  to ``n - 1``),
* a **light, sparse spanner** (the greedy spanner in particular) gets within
  the stretch factor of the fastest delivery while paying communication cost
  proportional to its weight — near the MST's.

The flood runs on the integer-id event loop of
:mod:`repro.distributed.engine`, which replays the seed
:class:`~repro.distributed.network.Network` simulator's event queue tie for
tie on flat arrays (no per-message objects, no dict lookups).  The seed
simulator flood lives on as the oracle in ``tests/oracles/distributed.py``;
both report identical statistics rows — including the first-delivery tree,
over which the optional **echo** (convergecast acknowledgement) phase is
accounted.

:func:`repro.distributed.comparison.compare_overlays` runs the comparison
for experiment E7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.distributed.engine import (
    EchoResult,
    FloodRun,
    echo_convergecast,
    indexed_flood,
    indexed_overlay,
)
from repro.distributed.network import NetworkStatistics
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import single_source_distances
from repro.graph.weighted_graph import Vertex, WeightedGraph

FloodTree = dict[Vertex, Optional[Vertex]]


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one flood broadcast over one overlay.

    Attributes
    ----------
    overlay_name:
        Label of the overlay (``"graph"``, ``"mst"``, ``"greedy"``, ...).
    overlay_edges, overlay_weight:
        Size and total weight of the overlay.
    statistics:
        Message count, communication cost and completion time of the flood.
    vertices_reached:
        Number of vertices that received the message (should be all of them
        on a connected overlay).
    max_delivery_delay:
        Latest first-delivery time over all vertices.
    stretch_vs_optimal:
        ``max_delivery_delay`` divided by the weighted eccentricity of the
        source in the *full* graph (the fastest physically possible delivery).
    echo:
        Cost of acknowledging every delivery back up the flood tree
        (:class:`~repro.distributed.engine.EchoResult`), when measured.
    """

    overlay_name: str
    overlay_edges: int
    overlay_weight: float
    statistics: NetworkStatistics
    vertices_reached: int
    max_delivery_delay: float
    stretch_vs_optimal: float
    echo: Optional[EchoResult] = None

    def as_row(self) -> dict[str, float]:
        """Return the result as a flat dictionary (one table row)."""
        row = {
            "edges": float(self.overlay_edges),
            "overlay_weight": self.overlay_weight,
            "reached": float(self.vertices_reached),
            "max_delay": self.max_delivery_delay,
            "delay_stretch": self.stretch_vs_optimal,
        }
        row.update(self.statistics.as_row())
        if self.echo is not None:
            row["echo_messages"] = float(self.echo.messages)
            row["echo_cost"] = self.echo.cost
            row["echo_completion"] = self.echo.completion_time
        return row


def _flood_indexed(
    overlay: WeightedGraph, source: Vertex
) -> tuple[NetworkStatistics, dict[Vertex, float], FloodTree, IndexedGraph, FloodRun]:
    """The indexed replay of the same flood (see :mod:`repro.distributed.engine`)."""
    indexed = indexed_overlay(overlay)
    run = indexed_flood(indexed, indexed.id_of(source))
    statistics = NetworkStatistics(
        messages_sent=run.messages,
        total_communication_cost=run.cost,
        completion_time=run.completion_time,
        rounds_processed=run.events,
    )
    vertex_of = indexed.vertex_of
    delivery_time = {
        vertex_of(vid): time
        for vid, time in enumerate(run.delivery)
        if not math.isinf(time)
    }
    parent = {
        vertex_of(vid): (vertex_of(run.parent[vid]) if run.parent[vid] >= 0 else None)
        for vid in range(len(run.delivery))
        if not math.isinf(run.delivery[vid])
    }
    return statistics, delivery_time, parent, indexed, run


def flood_broadcast(
    overlay: WeightedGraph,
    source: Vertex,
    *,
    payload: object = "broadcast",
) -> tuple[NetworkStatistics, dict[Vertex, float]]:
    """Flood ``payload`` from ``source`` over ``overlay``.

    Returns the network statistics and the first-delivery time of every
    reached vertex (the source is delivered at time 0).
    """
    statistics, delivery_time, _ = flood_broadcast_with_tree(
        overlay, source, payload=payload
    )
    return statistics, delivery_time


def flood_broadcast_with_tree(
    overlay: WeightedGraph,
    source: Vertex,
    *,
    payload: object = "broadcast",
) -> tuple[NetworkStatistics, dict[Vertex, float], FloodTree]:
    """Flood like :func:`flood_broadcast`, also returning the first-delivery tree.

    The tree maps every reached vertex to the neighbour its first message
    came from (``None`` for the source); the echo phase is accounted over it.
    The payload is not inspected by the flood (every copy is identical).
    """
    statistics, delivery_time, parent, _, _ = _flood_indexed(overlay, source)
    return statistics, delivery_time, parent


def broadcast_over_overlay(
    full_graph: WeightedGraph,
    overlay: WeightedGraph,
    source: Vertex,
    *,
    name: str = "overlay",
    farthest_optimal: Optional[float] = None,
    measure_echo: bool = True,
) -> BroadcastResult:
    """Run a flood broadcast over ``overlay`` and measure it against ``full_graph``.

    The delay stretch is measured against the source's weighted eccentricity
    in the full graph — the fastest any overlay could deliver to the farthest
    vertex.  ``farthest_optimal`` overrides that eccentricity when the caller
    already knows it (the overlay bench computes it once per workload, and
    for metric workloads straight from the metric instead of a Θ(n²)
    Dijkstra over the lazy complete graph).
    """
    echo: Optional[EchoResult] = None
    # The indexed flood already built the id mirror and the flat
    # delivery/parent arrays; feed them straight to the echo accounting
    # instead of re-deriving both from the vertex-keyed dicts.
    statistics, delivery_time, _, indexed, run = _flood_indexed(overlay, source)
    if measure_echo:
        echo = echo_convergecast(indexed, indexed.id_of(source), run)
    if farthest_optimal is None:
        optimal_distances = single_source_distances(full_graph, source)
        farthest_optimal = max(optimal_distances.values(), default=0.0)
    max_delay = max(delivery_time.values(), default=0.0)
    stretch = max_delay / farthest_optimal if farthest_optimal > 0 else 1.0
    return BroadcastResult(
        overlay_name=name,
        overlay_edges=overlay.number_of_edges,
        overlay_weight=overlay.total_weight(),
        statistics=statistics,
        vertices_reached=len(delivery_time),
        max_delivery_delay=max_delay,
        stretch_vs_optimal=stretch,
        echo=echo,
    )
