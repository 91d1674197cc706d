"""Weighted-graph substrate: the graphs the spanner algorithms operate on.

The subpackage provides the :class:`~repro.graph.weighted_graph.WeightedGraph`
container, shortest paths, minimum spanning trees, traversal and girth
utilities, generators for all workload families and (de)serialisation
helpers.
"""

from repro.graph.weighted_graph import WeightedGraph
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.heap import EventQueue
from repro.graph.shortest_paths import (
    dijkstra,
    dijkstra_with_cutoff,
    dijkstra_with_cutoff_stats,
    indexed_bidirectional_cutoff,
    indexed_dijkstra_with_cutoff,
    pair_distance,
    shortest_path,
    single_source_distances,
)
from repro.graph.mst import (
    DisjointSet,
    contains_spanning_tree_edges,
    is_spanning_tree,
    kruskal_mst,
    mst_weight,
    mst_weight_indexed,
    prim_mst,
)
from repro.graph.traversal import (
    connected_components,
    is_connected,
    is_forest,
    is_tree,
    spanning_forest,
)
from repro.graph.girth import unweighted_girth, weighted_girth

__all__ = [
    "WeightedGraph",
    "IndexedGraph",
    "EventQueue",
    "dijkstra",
    "dijkstra_with_cutoff",
    "dijkstra_with_cutoff_stats",
    "indexed_bidirectional_cutoff",
    "indexed_dijkstra_with_cutoff",
    "pair_distance",
    "shortest_path",
    "single_source_distances",
    "DisjointSet",
    "contains_spanning_tree_edges",
    "is_spanning_tree",
    "kruskal_mst",
    "mst_weight",
    "mst_weight_indexed",
    "prim_mst",
    "connected_components",
    "is_connected",
    "is_forest",
    "is_tree",
    "spanning_forest",
    "unweighted_girth",
    "weighted_girth",
]
