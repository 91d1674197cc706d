"""The seed dict-graph engines of the distributed overlay layer.

Each runs on the vertex-keyed :class:`~repro.graph.weighted_graph.WeightedGraph`
and is what the flat-array production engine replays tie for tie: the
:class:`~repro.distributed.network.Network` flood, nested-dict routing
tables and the hardened ack/timeout/retry flood — plus the synchronizer's
seed diameter, :func:`weighted_diameter`, one dict Dijkstra per vertex, and
:func:`echo_statistics`, the echo accounting over a recorded flood tree.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from repro.distributed.broadcast import BroadcastResult, FloodTree
from repro.distributed.engine import EchoResult, FloodRun, echo_convergecast, indexed_overlay
from repro.distributed.faults import FaultPlan
from repro.distributed.network import Message, Network, NetworkStatistics
from repro.distributed.resilient import (
    _ACK,
    _DATA,
    _TIMER,
    ResilientParams,
    ResilientResult,
    ResilientStatistics,
)
from repro.distributed.routing import RoutingScheme
from repro.graph.heap import EventQueue
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
        self._distance_dicts: dict[Vertex, dict[Vertex, float]] = {}
        for destination in destinations:
            distances, predecessors = dijkstra(self.overlay, destination)
            self._distance_dicts[destination] = distances
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

    def next_hop(self, source: Vertex, destination: Vertex) -> Optional[Vertex]:
        if source == destination:
            return None
        return self._next_hop_dicts[source][destination]

    def table_distance(self, vertex: Vertex, destination: Vertex) -> float:
        if vertex == destination:
            return 0.0
        return self._distance_dicts[destination].get(vertex, float("inf"))


def resilient_flood_reference(
    overlay: WeightedGraph,
    source: Vertex,
    plan: FaultPlan,
    params: Optional[ResilientParams] = None,
) -> ResilientResult:
    """The hardened flood on the dict graph with vertex objects."""
    if params is None:
        params = ResilientParams()
    stats = ResilientStatistics()
    delivery: dict[Vertex, float] = {source: 0.0}
    parent: dict[Vertex, Optional[Vertex]] = {source: None}
    attempts: dict[tuple[Vertex, Vertex], int] = {}
    acked: set[tuple[Vertex, Vertex]] = set()

    events_queue = EventQueue()

    def send_data(u: Vertex, v: Vertex, attempt: int, now: float) -> None:
        weight = overlay.weight(u, v)
        stats.messages += 1
        stats.data_sends += 1
        stats.cost += weight
        if attempt > 0:
            stats.retries += 1
        arrival = now + weight + plan.extra_delay(u, v, weight, _DATA, attempt)
        lost = (
            not plan.edge_alive(u, v, now)
            or not plan.node_alive(v, arrival)
            or plan.drops(u, v, _DATA, attempt)
        )
        if lost:
            stats.messages_lost += 1
            events_queue.drop()
        else:
            events_queue.push(arrival, _DATA, u, v, attempt)
        timeout = now + params.timeout_scale * 2.0 * weight * params.backoff**attempt
        events_queue.push(timeout, _TIMER, u, v, attempt)

    def send_ack(v: Vertex, u: Vertex, attempt: int, now: float) -> None:
        weight = overlay.weight(v, u)
        stats.messages += 1
        stats.acks += 1
        stats.cost += weight
        arrival = now + weight + plan.extra_delay(v, u, weight, _ACK, attempt)
        lost = (
            not plan.edge_alive(v, u, now)
            or not plan.node_alive(u, arrival)
            or plan.drops(v, u, _ACK, attempt)
        )
        if lost:
            stats.messages_lost += 1
            events_queue.drop()
        else:
            events_queue.push(arrival, _ACK, v, u, attempt)

    def start_links(vertex: Vertex, exclude: Optional[Vertex], now: float) -> None:
        for neighbour, _ in overlay.incident(vertex):
            if neighbour != exclude:
                attempts[(vertex, neighbour)] = 1
                send_data(vertex, neighbour, 0, now)

    start_links(source, None, 0.0)

    now = 0.0
    while len(events_queue):
        now, _, kind, a, b, attempt = events_queue.pop()
        stats.events += 1
        if kind == _DATA:
            # DATA from a arriving at b (liveness already decided at send).
            if b in delivery:
                stats.duplicates += 1
                send_ack(b, a, attempt, now)
                continue
            delivery[b] = now
            parent[b] = a
            send_ack(b, a, attempt, now)
            start_links(b, a, now)
        elif kind == _ACK:
            # ACK from a arriving at b: the DATA link b → a is confirmed.
            acked.add((b, a))
        else:  # _TIMER for the DATA link a → b
            stats.timers_fired += 1
            if (a, b) in acked or not plan.node_alive(a, now):
                continue
            sent = attempts[(a, b)]
            if sent < params.max_attempts:
                attempts[(a, b)] = sent + 1
                send_data(a, b, sent, now)
            else:
                stats.give_ups += 1

    stats.completion_time = now
    return ResilientResult(statistics=stats, delivery_time=delivery, parent=parent)

