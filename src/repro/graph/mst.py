"""Minimum spanning trees and the disjoint-set (union-find) structure.

Lightness — the central quantity of the paper — is defined as
``Ψ(H) = w(H) / w(MST(G))`` (Section 2).  Kruskal's algorithm (with the
union-find structure it needs) builds the tree, and an indexed Prim
computes its weight for the lightness accounting in
:mod:`repro.core.lightness`; the tests cross-check both against the Prim
reference in ``tests/oracles/graph.py``.

Observation 2 of the paper states that the greedy spanner contains all edges
of *some* MST of the input graph.  :func:`kruskal_mst` uses the same
deterministic tie-breaking order as
:meth:`~repro.graph.weighted_graph.WeightedGraph.edges_sorted_by_weight`, so
the MST it returns is exactly the one contained in our greedy spanner — the
tests rely on this to check Observation 2 edge-by-edge.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Optional

import heapq
import math

from repro.errors import DisconnectedGraphError
from repro.graph.weighted_graph import WeightedGraph


class DisjointSet:
    """Union-find with path compression and union by rank.

    Elements may be arbitrary hashable objects and are added lazily on first
    use by :meth:`find` / :meth:`union`.
    """

    def __init__(self, elements: Optional[Iterable[Hashable]] = None) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._rank: dict[Hashable, int] = {}
        if elements is not None:
            for element in elements:
                self.add(element)

    def add(self, element: Hashable) -> None:
        """Register ``element`` as a singleton set (no-op if already present)."""
        if element not in self._parent:
            self._parent[element] = element
            self._rank[element] = 0

    def find(self, element: Hashable) -> Hashable:
        """Return the representative of the set containing ``element``."""
        self.add(element)
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns True if a merge happened, False if they were already together.
        """
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        return True

    def __len__(self) -> int:
        return len(self._parent)


def kruskal_mst(graph: WeightedGraph) -> WeightedGraph:
    """Return a minimum spanning forest of ``graph`` computed by Kruskal's algorithm.

    For a connected graph this is an MST.  Edges are examined in the same
    deterministic non-decreasing weight order used by the greedy spanner, so
    the returned tree is the MST that Observation 2 guarantees to be contained
    in the greedy spanner.
    """
    forest = graph.empty_spanning_subgraph()
    components = DisjointSet(graph.vertices())
    for u, v, weight in graph.edges_sorted_by_weight():
        if components.union(u, v):
            forest.add_edge(u, v, weight)
    return forest


def mst_weight(graph: WeightedGraph) -> float:
    """Return ``w(MST(G))`` for a connected graph.

    Lazy complete-graph views (``MetricClosure``) expose a
    ``dense_metric_mst_weight`` fast path — dense Prim, ``O(n)`` memory
    instead of sorting all ``n(n-1)/2`` pairs — which is dispatched to here
    (duck-typed so the graph substrate stays import-independent of the
    metric substrate).

    Raises
    ------
    DisconnectedGraphError
        If the graph is not connected, because the lightness of a spanner is
        only defined with respect to a spanning tree.
    """
    dense = getattr(graph, "dense_metric_mst_weight", None)
    if dense is not None:
        return dense()
    forest = kruskal_mst(graph)
    if forest.number_of_edges != graph.number_of_vertices - 1:
        raise DisconnectedGraphError(
            "MST weight requested for a disconnected graph "
            f"({forest.number_of_edges} forest edges for "
            f"{graph.number_of_vertices} vertices)"
        )
    return forest.total_weight()


def mst_weight_indexed(graph: WeightedGraph) -> float:
    """Indexed-Prim fast path for ``w(MST(G))`` on plain weighted graphs.

    Runs Prim's algorithm over the flat adjacency arrays of an
    :class:`~repro.graph.indexed_graph.IndexedGraph` copy — no per-step hash
    lookups and no edge sort, so the batch verification engine can fold MST
    weights (lightness, Observations 6/12, the optimality certificates) into
    the same indexed substrate the distance checks run on.  Lazy
    complete-graph views keep their dense-Prim dispatch.  The returned weight
    equals :func:`mst_weight` up to summation order (the tree is a minimum
    spanning tree either way; with tied weights a different minimum tree of
    the same total weight may be chosen).

    Raises :class:`DisconnectedGraphError` for disconnected graphs, matching
    :func:`mst_weight`.
    """
    dense = getattr(graph, "dense_metric_mst_weight", None)
    if dense is not None:
        return dense()
    from repro.graph.indexed_graph import IndexedGraph

    indexed = IndexedGraph.from_weighted_graph(graph)
    n = indexed.number_of_vertices
    if n == 0:
        return 0.0
    neighbour_ids, neighbour_weights = indexed.adjacency_arrays()
    inf = math.inf
    best: list[float] = [inf] * n
    in_tree: list[bool] = [False] * n
    best[0] = 0.0
    total = 0.0
    reached = 0
    heap: list[tuple[float, int]] = [(0.0, 0)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        weight, vertex = pop(heap)
        if in_tree[vertex]:
            continue
        in_tree[vertex] = True
        reached += 1
        total += weight
        for neighbour, edge_weight in zip(
            neighbour_ids[vertex], neighbour_weights[vertex]
        ):
            if not in_tree[neighbour] and edge_weight < best[neighbour]:
                best[neighbour] = edge_weight
                push(heap, (edge_weight, neighbour))
    if reached != n:
        raise DisconnectedGraphError(
            "MST weight requested for a disconnected graph "
            f"({reached - 1} tree edges for {n} vertices)"
        )
    return total
