"""Compact routing over spanner overlays.

Section 1.1 of the paper lists compact routing schemes among the applications
of low-degree, sparse spanners: "the use of low degree spanners enables the
routing tables to be of small size".  This module implements the simplest
such scheme — next-hop shortest-path routing restricted to an overlay — and
the measurements that make the motivation concrete:

* **table size** — each vertex stores one next-hop entry per destination, but
  the *local* state that must be maintained per neighbour (ports, link state,
  synchronizer counters) is proportional to its overlay degree, so the
  per-vertex table/port cost is reported as ``degree``,
* **route stretch** — the ratio between the routed path's length (through the
  overlay) and the true shortest-path distance in the full network; by the
  spanner property this is at most the overlay's stretch,
* **total routing cost** — the sum of routed path lengths over a set of
  demand pairs.

:class:`RoutingScheme` mirrors the overlay onto
:class:`~repro.graph.indexed_graph.IndexedGraph` integer ids and keeps the
next-hop tables as flat ``numpy`` arrays, one row per destination filled by
a single :func:`~repro.graph.shortest_paths.indexed_sssp` sweep (whose
parent array *is* the row).  Passing ``destinations=`` builds only the
requested rows — at bench scale (``n = 10⁴``) the full Θ(n²) table is
deliberately not materialized.  The seed implementation (one dict-based
Dijkstra per destination into nested next-hop dicts) lives on as the
oracle in ``tests/oracles/distributed.py``.

The scheme fails fast on a disconnected overlay with a
:class:`~repro.errors.DisconnectedGraphError` naming the unreachable vertex
count — one connectivity sweep up front instead of discovering the hole
after ``n`` full Dijkstras.

:func:`compare_routing_overlays` runs the same demands over several overlays
(full graph, MST, greedy spanner, ...), reproducing the trade-off the paper
describes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.query_engine import QueryEngine
from repro.errors import DisconnectedGraphError
from repro.distributed.engine import indexed_overlay
from repro.graph.shortest_paths import indexed_sssp, pair_distance
from repro.graph.weighted_graph import Vertex, WeightedGraph


def _canonical_edge(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    """Undirected edge key in canonical ``repr`` order (matches ``faults.edge_key``)."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass(frozen=True)
class Route:
    """A routed path: the vertex sequence and its total weight."""

    path: tuple[Vertex, ...]
    weight: float

    @property
    def hops(self) -> int:
        """The number of edges traversed."""
        return max(len(self.path) - 1, 0)


class RoutingScheme:
    """Next-hop shortest-path routing restricted to an overlay graph.

    Packets are forwarded hop by hop using only local table lookups, which is
    how the scheme would operate in a real network.  See the module
    docstring for the table layout.

    Parameters
    ----------
    overlay:
        The (connected) overlay graph to route on.
    destinations:
        Optional subset of destinations to build table rows for; ``None``
        builds the full table.  Routing towards a destination outside the
        subset raises :class:`KeyError`.
    on_unreachable:
        ``"raise"`` (default) fails fast on a disconnected overlay with a
        :class:`~repro.errors.DisconnectedGraphError`; ``"partial"`` builds
        the tables anyway — the repair-time regime, where an overlay with
        failed edges removed may be transiently disconnected — and reports
        the unreachable set through :attr:`unreachable` instead of
        swallowing it (routing towards an unreachable destination then
        raises :class:`KeyError` per lookup).
    """

    def __init__(
        self,
        overlay: WeightedGraph,
        *,
        destinations: Optional[Sequence[Vertex]] = None,
        on_unreachable: str = "raise",
    ) -> None:
        if on_unreachable not in ("raise", "partial"):
            raise ValueError(
                f"unknown on_unreachable {on_unreachable!r}; use 'raise' or 'partial'"
            )
        self.overlay = overlay
        self.on_unreachable = on_unreachable
        #: Vertices unreachable from the overlay's first vertex (empty on a
        #: connected overlay; only populated with ``on_unreachable="partial"``).
        self.unreachable: frozenset[Vertex] = frozenset()
        #: Non-stale heap pops spent building the tables (the overlay bench's
        #: ``overlay_route_settles`` operation count).
        self.build_settles = 0
        self._indexed = indexed_overlay(overlay)
        self._query_engine: Optional[QueryEngine] = None
        self._check_connected()
        if destinations is None:
            destinations = list(overlay.vertices())
        else:
            destinations = list(destinations)
        self._destinations = destinations
        self._build_tables(destinations)

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _check_connected(self) -> None:
        """Fail fast on a disconnected overlay, naming the unreachable count.

        One sweep from the first vertex up front; the seed implementation
        only noticed after running a full Dijkstra per destination.
        """
        n = self._indexed.number_of_vertices
        if n == 0:
            return
        distances, _, settles = indexed_sssp(self._indexed, 0)
        self.build_settles += settles
        unreachable = sum(1 for distance in distances if math.isinf(distance))
        if unreachable:
            if self.on_unreachable == "partial":
                self.unreachable = frozenset(
                    self._indexed.vertex_of(vid)
                    for vid, distance in enumerate(distances)
                    if math.isinf(distance)
                )
                return
            raise DisconnectedGraphError(
                f"routing tables require a connected overlay: {unreachable} of "
                f"{n} vertices are unreachable from {self._indexed.vertex_of(0)!r}"
            )

    def _build_tables(self, destinations: list[Vertex]) -> None:
        """One :func:`indexed_sssp` sweep per destination; the parent array is the row."""
        indexed = self._indexed
        n = indexed.number_of_vertices
        self._dest_row = {vertex: row for row, vertex in enumerate(destinations)}
        self._table = np.full((len(destinations), n), -1, dtype=np.int32)
        # Distance rows ride along for free (the sweep computes them anyway);
        # detour forwarding steers by them when a next-hop link has failed.
        self._distances = np.full((len(destinations), n), math.inf)
        for row, destination in enumerate(destinations):
            distances, parents, settles = indexed_sssp(indexed, indexed.id_of(destination))
            self.build_settles += settles
            # Parents point towards `destination`, so parent[v] is exactly
            # the next hop from v — the whole table row in one assignment.
            self._table[row, :] = parents
            self._distances[row, :] = distances

    # ------------------------------------------------------------------
    # Table statistics
    # ------------------------------------------------------------------
    def table_entries(self, vertex: Vertex) -> int:
        """Number of next-hop entries stored at ``vertex`` (``n - 1`` when full)."""
        column = self._table[:, self._indexed.id_of(vertex)]
        return int(np.count_nonzero(column != -1))

    def table_bytes(self) -> int:
        """Memory footprint of the next-hop tables (exact ``ndarray.nbytes``)."""
        return int(self._table.nbytes)

    def port_count(self, vertex: Vertex) -> int:
        """Number of distinct ports (overlay neighbours) at ``vertex``.

        This is the overlay degree — the quantity the paper's routing
        motivation is about.
        """
        return self.overlay.degree(vertex)

    def max_port_count(self) -> int:
        """The maximum port count over all vertices (the overlay's max degree)."""
        return self.overlay.max_degree()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def next_hop(self, source: Vertex, destination: Vertex) -> Optional[Vertex]:
        """Return the next hop from ``source`` towards ``destination`` (None at the destination)."""
        if source == destination:
            return None
        indexed = self._indexed
        hop = int(self._table[self._dest_row[destination], indexed.id_of(source)])
        if hop < 0:
            raise KeyError(destination)
        return indexed.vertex_of(hop)

    def route(self, source: Vertex, destination: Vertex) -> Route:
        """Forward a packet hop by hop and return the realised route."""
        path: list[Vertex] = [source]
        weight = 0.0
        current = source
        safety = self.overlay.number_of_vertices + 1
        while current != destination:
            hop = self.next_hop(current, destination)
            weight += self.overlay.weight(current, hop)
            path.append(hop)
            current = hop
            safety -= 1
            if safety < 0:
                raise RuntimeError("routing loop detected (corrupted tables)")
        return Route(path=tuple(path), weight=weight)

    @property
    def query_engine(self) -> QueryEngine:
        """The scheme's batched distance engine over the indexed overlay.

        Built lazily on first use and shared across batches: one
        early-stopped search per distinct source, parked after the batch so
        a source asked again resumes it instead of searching anew (see
        :class:`repro.core.query_engine.QueryEngine`).
        """
        if self._query_engine is None:
            self._query_engine = QueryEngine(self._indexed)
        return self._query_engine

    def run_queries(
        self, sources: Sequence[Vertex], targets: Sequence[Vertex]
    ) -> list[float]:
        """Answer the paired overlay-distance queries ``(sources[i], targets[i])``.

        Exact shortest-path distances *in the overlay*, independent of which
        table rows were built — demand sets can be measured without paying
        one table row per destination.  Distances match :meth:`route`
        weights on routed pairs (both are overlay shortest paths).
        """
        return self.query_engine.run_queries(sources, targets)

    def table_distance(self, vertex: Vertex, destination: Vertex) -> float:
        """The table's shortest-path distance from ``vertex`` to ``destination``.

        ``math.inf`` for unreachable pairs (partial tables).  Detour
        forwarding steers by this quantity.
        """
        if vertex == destination:
            return 0.0
        indexed = self._indexed
        return float(
            self._distances[self._dest_row[destination], indexed.id_of(vertex)]
        )

    def route_with_detours(
        self,
        source: Vertex,
        destination: Vertex,
        failed_edges: "frozenset[tuple[Vertex, Vertex]] | set[tuple[Vertex, Vertex]]",
    ) -> tuple[Optional[Route], int]:
        """Forward hop by hop, detouring around failed next-hop links.

        ``failed_edges`` holds undirected pairs in canonical ``repr`` order
        (see :func:`repro.distributed.faults.edge_key`).  At each hop the
        primary table entry is used when its link survives; otherwise the
        packet detours to the surviving, not-yet-visited neighbour
        minimizing ``w(x, nbr) + δ_table(nbr, destination)`` — a greedy
        geographic-style recovery using only local state plus the prebuilt
        distance rows (which still describe the *pre-failure* overlay, so
        the realised route can stretch; :func:`evaluate_detour_routing`
        reports the degradation percentiles).  Returns ``(route, detours)``,
        with ``route=None`` when the packet is stranded (every usable
        neighbour failed or already visited — delivery is impossible or
        would loop).
        """
        path: list[Vertex] = [source]
        weight = 0.0
        current = source
        visited = {source}
        detours = 0
        while current != destination:
            try:
                primary = self.next_hop(current, destination)
            except KeyError:
                primary = None
            hop = None
            if (
                primary is not None
                and _canonical_edge(current, primary) not in failed_edges
                and primary not in visited
            ):
                hop = primary
            else:
                best: Optional[tuple[float, str, Vertex]] = None
                for neighbour, edge_weight in self.overlay.incident(current):
                    if neighbour in visited:
                        continue
                    if _canonical_edge(current, neighbour) in failed_edges:
                        continue
                    towards = self.table_distance(neighbour, destination)
                    if math.isinf(towards):
                        continue
                    candidate = (edge_weight + towards, repr(neighbour), neighbour)
                    if best is None or candidate[:2] < best[:2]:
                        best = candidate
                if best is not None:
                    hop = best[2]
                    detours += 1
            if hop is None:
                return None, detours
            weight += self.overlay.weight(current, hop)
            path.append(hop)
            visited.add(hop)
            current = hop
        return Route(path=tuple(path), weight=weight), detours


@dataclass(frozen=True)
class RoutingReport:
    """Aggregate routing quality of one overlay over a demand set.

    Attributes
    ----------
    overlay_name:
        Label of the overlay.
    overlay_edges, max_ports:
        Size and maximum degree (per-vertex port count) of the overlay.
    demands:
        Number of (source, destination) pairs routed.
    max_route_stretch, mean_route_stretch:
        Worst and average ratio of routed length to true shortest-path
        distance in the full network.
    total_routed_weight:
        Sum of routed path lengths over all demands.
    stretch_p50, stretch_p90:
        Median and 90th-percentile route stretch (nearest-rank).
    table_bytes:
        Memory footprint of the scheme's next-hop tables.
    """

    overlay_name: str
    overlay_edges: int
    max_ports: int
    demands: int
    max_route_stretch: float
    mean_route_stretch: float
    total_routed_weight: float
    stretch_p50: float = 1.0
    stretch_p90: float = 1.0
    table_bytes: int = 0

    def as_row(self) -> dict[str, float]:
        """Return the report as a flat dictionary (one table row)."""
        return {
            "edges": float(self.overlay_edges),
            "max_ports": float(self.max_ports),
            "demands": float(self.demands),
            "max_route_stretch": self.max_route_stretch,
            "mean_route_stretch": self.mean_route_stretch,
            "stretch_p50": self.stretch_p50,
            "stretch_p90": self.stretch_p90,
            "total_routed_weight": self.total_routed_weight,
            "table_bytes": float(self.table_bytes),
        }


def _nearest_rank(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending list (1.0 when empty)."""
    if not sorted_values:
        return 1.0
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[rank - 1]


def evaluate_routing(
    full_graph: WeightedGraph,
    overlay: WeightedGraph,
    demands: list[tuple[Vertex, Vertex]],
    *,
    name: str = "overlay",
    scheme: Optional[RoutingScheme] = None,
    optimal_distance: Optional[Callable[[Vertex, Vertex], float]] = None,
) -> RoutingReport:
    """Route every demand over ``overlay`` and measure stretch against ``full_graph``.

    ``optimal_distance`` overrides the per-demand shortest-path query in the
    full graph — the overlay bench passes the metric's direct distance, where
    a Dijkstra over the lazy complete graph would be Θ(n²) per demand.  A
    prebuilt ``scheme`` (e.g. one restricted to the demand destinations via
    ``destinations=``) is used as-is.
    """
    if scheme is None:
        scheme = RoutingScheme(overlay)
    if optimal_distance is None:
        optimal_distance = lambda u, v: pair_distance(full_graph, u, v)  # noqa: E731
    stretches: list[float] = []
    total = 0.0
    for source, destination in demands:
        route = scheme.route(source, destination)
        total += route.weight
        optimal = optimal_distance(source, destination)
        if optimal > 0:
            stretches.append(route.weight / optimal)
    stretches.sort()
    return RoutingReport(
        overlay_name=name,
        overlay_edges=overlay.number_of_edges,
        max_ports=scheme.max_port_count(),
        demands=len(demands),
        max_route_stretch=stretches[-1] if stretches else 1.0,
        mean_route_stretch=(sum(stretches) / len(stretches)) if stretches else 1.0,
        total_routed_weight=total,
        stretch_p50=_nearest_rank(stretches, 0.50),
        stretch_p90=_nearest_rank(stretches, 0.90),
        table_bytes=scheme.table_bytes(),
    )


@dataclass(frozen=True)
class DetourReport:
    """Routing quality under failed links, measured against pre-failure routes.

    ``degradation_*`` are nearest-rank percentiles of the per-demand ratio
    (detoured route weight) / (pre-failure route weight) over delivered
    demands; ``undelivered`` counts demands stranded by the failures (no
    surviving usable neighbour).
    """

    demands: int
    delivered: int
    undelivered: int
    detours: int
    degradation_p50: float
    degradation_p90: float
    degradation_max: float
    total_routed_weight: float

    def as_row(self) -> dict[str, float]:
        return {
            "demands": float(self.demands),
            "delivered": float(self.delivered),
            "undelivered": float(self.undelivered),
            "detours": float(self.detours),
            "degradation_p50": self.degradation_p50,
            "degradation_p90": self.degradation_p90,
            "degradation_max": self.degradation_max,
            "detour_routed_weight": self.total_routed_weight,
        }


def evaluate_detour_routing(
    overlay: WeightedGraph,
    demands: list[tuple[Vertex, Vertex]],
    failed_edges: "frozenset[tuple[Vertex, Vertex]] | set[tuple[Vertex, Vertex]]",
    *,
    scheme: Optional[RoutingScheme] = None,
) -> DetourReport:
    """Route every demand with detour forwarding and report the degradation.

    The scheme's tables describe the intact ``overlay``; ``failed_edges``
    are applied only at forwarding time (the repair-time regime: failures
    have happened, tables have not been rebuilt yet).  Pre-failure route
    weights come from the same tables, so the percentiles isolate exactly
    what the failures cost.
    """
    if scheme is None:
        destinations = sorted({d for _, d in demands}, key=repr)
        scheme = RoutingScheme(overlay, destinations=destinations)
    failed = {_canonical_edge(u, v) for u, v in failed_edges}
    ratios: list[float] = []
    delivered = 0
    undelivered = 0
    detours = 0
    total = 0.0
    for source, destination in demands:
        route, used = scheme.route_with_detours(source, destination, failed)
        detours += used
        if route is None:
            undelivered += 1
            continue
        delivered += 1
        total += route.weight
        baseline = scheme.route(source, destination).weight
        if baseline > 0:
            ratios.append(route.weight / baseline)
    ratios.sort()
    return DetourReport(
        demands=len(demands),
        delivered=delivered,
        undelivered=undelivered,
        detours=detours,
        degradation_p50=_nearest_rank(ratios, 0.50),
        degradation_p90=_nearest_rank(ratios, 0.90),
        degradation_max=ratios[-1] if ratios else 1.0,
        total_routed_weight=total,
    )


def random_demands(
    graph: WeightedGraph, count: int, *, seed: Optional[int] = None
) -> list[tuple[Vertex, Vertex]]:
    """Return ``count`` random distinct-endpoint demand pairs."""
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    if len(vertices) < 2:
        return []
    return [tuple(rng.sample(vertices, 2)) for _ in range(count)]


def compare_routing_overlays(
    graph: WeightedGraph,
    overlays: dict[str, WeightedGraph],
    *,
    demand_count: int = 100,
    seed: Optional[int] = None,
) -> list[RoutingReport]:
    """Route the same random demand set over each overlay and report per overlay."""
    from repro.distributed.comparison import compare_overlays

    return compare_overlays(
        graph,
        overlays,
        protocols=("routing",),
        demand_count=demand_count,
        seed=seed,
    ).routing
