"""Spanner-layer references: a shortest-path-tree baseline and MST weight shares.

Neither is a construction or a measure the library reports; the tests use
them as an extra (weak) spanner and to check the lightness accounting
against Observation 2.
"""

from __future__ import annotations

from typing import Optional

from repro.core.spanner import Spanner
from repro.graph.mst import kruskal_mst, mst_weight_indexed
from repro.graph.shortest_paths import dijkstra
from repro.graph.weighted_graph import Vertex, WeightedGraph


def shortest_path_tree_spanner(
    graph: WeightedGraph, root: Optional[Vertex] = None
) -> Spanner:
    """Return a shortest-path tree rooted at ``root`` (default: first vertex).

    The stretch of a shortest-path tree is unbounded in general; the spanner
    records ``n - 1`` as a safe upper bound for connected graphs.
    """
    if root is None:
        root = next(iter(graph.vertices()))
    _, predecessors = dijkstra(graph, root)
    tree = graph.empty_spanning_subgraph()
    for vertex, parent in predecessors.items():
        if parent is not None:
            tree.add_edge(vertex, parent, graph.weight(vertex, parent))
    return Spanner(
        base=graph,
        subgraph=tree,
        stretch=float(max(graph.number_of_vertices - 1, 1)),
        algorithm="shortest-path-tree",
        metadata={"root": 0.0},
    )


def excess_weight_over_mst(subgraph: WeightedGraph, base: WeightedGraph) -> float:
    """Return ``w(H) - w(MST(G))``, the weight the spanner pays beyond the MST."""
    return subgraph.total_weight() - mst_weight_indexed(base)


def mst_fraction_of_spanner(spanner: Spanner) -> float:
    """Return the fraction of the spanner's weight contributed by MST edges.

    Observation 2 guarantees that the greedy spanner contains all edges of
    some MST; this helper quantifies how much of the spanner *is* that MST.
    """
    mst = kruskal_mst(spanner.base)
    mst_edges_weight = sum(
        weight for u, v, weight in mst.edges() if spanner.subgraph.has_edge(u, v)
    )
    total = spanner.weight
    if total == 0.0:
        return 1.0
    return mst_edges_weight / total
