"""The seed dict-graph engines of the distributed overlay layer.

Each runs on the vertex-keyed :class:`~repro.graph.weighted_graph.WeightedGraph`
and is what the flat-array production engine replays tie for tie: the
:class:`~repro.distributed.network.Network` flood and nested-dict routing
tables — plus the synchronizer's
seed diameter, :func:`weighted_diameter`, one dict Dijkstra per vertex, and
:func:`echo_statistics`, the echo accounting over a recorded flood tree.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from repro.distributed.broadcast import BroadcastResult, FloodTree
from repro.distributed.engine import EchoResult, FloodRun, echo_convergecast, indexed_overlay
from repro.distributed.network import Message, Network, NetworkStatistics
from repro.distributed.routing import RoutingScheme
from repro.graph.shortest_paths import dijkstra, single_source_distances
from repro.graph.weighted_graph import Vertex, WeightedGraph


def flood_reference(
    overlay: WeightedGraph, source: Vertex, payload: object = "broadcast"
) -> tuple[NetworkStatistics, dict[Vertex, float], FloodTree]:
    """The seed event-driven flood; also records the first-delivery tree."""
    delivery_time: dict[Vertex, float] = {source: 0.0}
    parent: FloodTree = {source: None}

    def handler(network: Network, vertex: Vertex, message: Message) -> None:
        if vertex in delivery_time:
            return
        delivery_time[vertex] = network.now
        parent[vertex] = message.sender
        for neighbour in network.overlay.neighbours(vertex):
            if neighbour != message.sender:
                network.send(vertex, neighbour, message.payload)

    network = Network(overlay, handler)
    network.broadcast_from(source, payload)
    statistics = network.run()
    return statistics, delivery_time, parent


def echo_statistics(
    overlay: WeightedGraph,
    source: Vertex,
    delivery_time: dict[Vertex, float],
    parent: FloodTree,
) -> EchoResult:
    """Account the echo (convergecast) phase over a recorded flood tree.

    Engine-independent by construction: the accounting is a pure bottom-up
    pass over ``(delivery_time, parent)``, which the flood engine and the
    seed simulator report identically.
    """
    indexed = indexed_overlay(overlay)
    n = indexed.number_of_vertices
    delivery = [math.inf] * n
    parents = [-1] * n
    for vertex, time in delivery_time.items():
        delivery[indexed.id_of(vertex)] = time
    for vertex, up in parent.items():
        if up is not None:
            parents[indexed.id_of(vertex)] = indexed.id_of(up)
    run = FloodRun(
        messages=0, cost=0.0, completion_time=0.0, events=0,
        delivery=delivery, parent=parents,
    )
    return echo_convergecast(indexed, indexed.id_of(source), run)


def weighted_diameter(graph: WeightedGraph) -> float:
    """The seed weighted diameter: one dict Dijkstra per vertex (inf if disconnected)."""
    diameter = 0.0
    for vertex in graph.vertices():
        distances = single_source_distances(graph, vertex)
        if len(distances) < graph.number_of_vertices:
            return math.inf
        diameter = max(diameter, max(distances.values(), default=0.0))
    return diameter


def broadcast_reference(
    full_graph: WeightedGraph, overlay: WeightedGraph, source: Vertex, *, name: str = "overlay"
) -> BroadcastResult:
    """:func:`~repro.distributed.broadcast.broadcast_over_overlay` on the seed flood."""
    statistics, delivery_time, parent = flood_reference(overlay, source)
    echo = echo_statistics(overlay, source, delivery_time, parent)
    farthest_optimal = max(single_source_distances(full_graph, source).values(), default=0.0)
    max_delay = max(delivery_time.values(), default=0.0)
    return BroadcastResult(
        overlay_name=name,
        overlay_edges=overlay.number_of_edges,
        overlay_weight=overlay.total_weight(),
        statistics=statistics,
        vertices_reached=len(delivery_time),
        max_delivery_delay=max_delay,
        stretch_vs_optimal=max_delay / farthest_optimal if farthest_optimal > 0 else 1.0,
        echo=echo,
    )


class ReferenceRoutingScheme(RoutingScheme):
    """Routing tables as nested dicts, one dict Dijkstra per destination.

    :meth:`table_bytes` is the recursive ``sys.getsizeof`` of the nested
    dicts (keys and values are shared vertex objects, counted once as
    pointers).
    """

    def _build_tables(self, destinations: list[Vertex]) -> None:
        self._next_hop_dicts: dict[Vertex, dict[Vertex, Vertex]] = {}
        for destination in destinations:
            _, predecessors = dijkstra(self.overlay, destination)
            for vertex, parent in predecessors.items():
                if parent is None:
                    continue
                self._next_hop_dicts.setdefault(vertex, {})[destination] = parent

    def table_entries(self, vertex: Vertex) -> int:
        return len(self._next_hop_dicts.get(vertex, {}))

    def table_bytes(self) -> int:
        total = sys.getsizeof(self._next_hop_dicts)
        for inner in self._next_hop_dicts.values():
            total += sys.getsizeof(inner)
        return total

    def _next_hop(self, source: Vertex, destination: Vertex) -> Optional[Vertex]:
        if source == destination:
            return None
        return self._next_hop_dicts[source][destination]
