"""Weighted-graph substrate: the graphs the spanner algorithms operate on.

The subpackage provides the :class:`~repro.graph.weighted_graph.WeightedGraph`
container, shortest paths, minimum spanning trees, connectivity and girth
utilities, generators for all workload families and atomic file writers.
"""

from repro.graph.weighted_graph import WeightedGraph
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.heap import EventQueue
from repro.graph.shortest_paths import (
    dijkstra,
    dijkstra_with_cutoff,
    dijkstra_with_cutoff_stats,
    indexed_bidirectional_cutoff,
    pair_distance,
    shortest_path,
    single_source_distances,
)
from repro.graph.mst import DisjointSet, kruskal_mst, mst_weight, mst_weight_indexed
from repro.graph.traversal import is_connected
from repro.graph.girth import unweighted_girth, weighted_girth

__all__ = [
    "WeightedGraph",
    "IndexedGraph",
    "EventQueue",
    "dijkstra",
    "dijkstra_with_cutoff",
    "dijkstra_with_cutoff_stats",
    "indexed_bidirectional_cutoff",
    "pair_distance",
    "shortest_path",
    "single_source_distances",
    "DisjointSet",
    "kruskal_mst",
    "mst_weight",
    "mst_weight_indexed",
    "is_connected",
    "unweighted_girth",
    "weighted_girth",
]
