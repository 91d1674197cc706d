"""The value-cache distance oracle and the greedy loop that drives it.

:class:`ValueCacheOracle` is the seed form of the ``"cached"`` strategy:
every settled pair of every ball is stored with its exact distance, and a
query is a hit whenever a stored bound is at most its cutoff.  It is exact
for any cutoff order and obviously correct, so the coverage-set oracle of
:mod:`repro.core.distance_oracle` is checked against it hit for hit, miss
for miss and settle for settle (the coverage oracle's settles plus the ones
its resumed balls restored).

:func:`value_cache_greedy` is the loop of
:func:`repro.core.greedy.greedy_spanner` (warm start included) with this
oracle plugged in.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from oracles.graph import indexed_ball

from repro.core.distance_oracle import DistanceOracle
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.weighted_graph import Vertex, WeightedEdge, WeightedGraph


def _pair_key(uid: int, vid: int) -> int:
    return ((uid << 32) | vid) if uid <= vid else ((vid << 32) | uid)


class ValueCacheOracle(DistanceOracle):
    """Ball searches whose every settled distance is kept as an exact bound."""

    def __init__(self, spanner: WeightedGraph) -> None:
        super().__init__(spanner)
        self._index = IndexedGraph.from_weighted_graph(spanner)
        self._bounds: dict[int, float] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        for uid, vid, weight in self._index.edges():
            self._bounds[_pair_key(uid, vid)] = weight

    def distance_within(self, u: Vertex, v: Vertex, cutoff: float) -> float:
        self.query_count += 1
        if u == v:
            return 0.0
        uid = self._index.id_of(u)
        vid = self._index.id_of(v)
        cached = self._bounds.get(_pair_key(uid, vid))
        if cached is not None and cached <= cutoff:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        settled = indexed_ball(self._index, uid, cutoff)
        self.settled_count += len(settled)
        bounds = self._bounds
        for vertex, dist in settled.items():
            if vertex != uid:
                key = _pair_key(uid, vertex)
                existing = bounds.get(key)
                if existing is None or dist < existing:
                    bounds[key] = dist
        return settled.get(vid, math.inf)

    def notify_edge_added(self, u: Vertex, v: Vertex, weight: float) -> None:
        uid, vid = self._index.id_of(u), self._index.id_of(v)
        self._index.append_edge_unchecked_ids(uid, vid, weight)
        key = _pair_key(uid, vid)
        existing = self._bounds.get(key)
        if existing is None or weight < existing:
            self._bounds[key] = weight


def value_cache_greedy(
    graph: WeightedGraph,
    t: float,
    *,
    edges: Optional[Iterable[WeightedEdge]] = None,
    seed_edges: Iterable[WeightedEdge] = (),
) -> tuple[WeightedGraph, ValueCacheOracle]:
    """Algorithm 1 on ``graph`` with :class:`ValueCacheOracle` answering the queries.

    ``seed_edges`` are installed before the oracle is built, as in
    :func:`~repro.core.greedy.greedy_spanner`.  Returns the spanner graph
    and the oracle, whose counters describe the run.
    """
    spanner_graph = graph.empty_spanning_subgraph()
    for u, v, weight in seed_edges:
        spanner_graph.add_edge(u, v, weight)
    oracle = ValueCacheOracle(spanner_graph)
    if edges is None:
        edges = graph.edges_sorted_by_weight()
    for u, v, weight in edges:
        cutoff = t * weight
        if oracle.distance_within(u, v, cutoff) > cutoff:
            spanner_graph.add_edge(u, v, weight)
            oracle.notify_edge_added(u, v, weight)
    return spanner_graph, oracle
