"""Connectivity and traversal utilities for weighted graphs.

Spanners are only defined for connected graphs (the paper assumes ``G`` is
connected), so the algorithms and the experiment harness need fast
connectivity checks.
"""

from __future__ import annotations

from collections import deque

from repro.errors import VertexNotFoundError
from repro.graph.weighted_graph import Vertex, WeightedGraph


def bfs_order(graph: WeightedGraph, source: Vertex) -> list[Vertex]:
    """Return the vertices reachable from ``source`` in breadth-first order."""
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    order: list[Vertex] = []
    visited: set[Vertex] = {source}
    queue: deque[Vertex] = deque([source])
    while queue:
        vertex = queue.popleft()
        order.append(vertex)
        for neighbour in graph.neighbours(vertex):
            if neighbour not in visited:
                visited.add(neighbour)
                queue.append(neighbour)
    return order


def is_connected(graph: WeightedGraph) -> bool:
    """Return True if the graph is connected (the empty graph counts as connected)."""
    if graph.number_of_vertices == 0:
        return True
    first = next(iter(graph.vertices()))
    return len(bfs_order(graph, first)) == graph.number_of_vertices
