"""Graph-layer references: Prim, tree checks, traversals, the networkx bridge.

The library builds MSTs with Kruskal (weights with an indexed Prim) and
checks connectivity with BFS; these are the independent implementations
the graph tests check them against, plus the two converters that hand a
graph to :mod:`networkx` (imported inside them, so the library never
needs it), and the per-pair bucketed geometric generator that the array
generator must reproduce bit for bit.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from collections.abc import Iterator
from typing import TYPE_CHECKING, Optional

from repro.errors import GraphError, VertexNotFoundError
from repro.graph.mst import DisjointSet
from repro.graph.traversal import bfs_order, is_connected
from repro.graph.weighted_graph import Vertex, WeightedGraph

if TYPE_CHECKING:
    import networkx as nx


def connected_components(graph: WeightedGraph) -> list[set[Vertex]]:
    """Return the connected components as a list of vertex sets."""
    components: list[set[Vertex]] = []
    visited: set[Vertex] = set()
    for vertex in graph.vertices():
        if vertex in visited:
            continue
        component = set(bfs_order(graph, vertex))
        visited |= component
        components.append(component)
    return components


def prim_mst(graph: WeightedGraph, root: Optional[Vertex] = None) -> WeightedGraph:
    """Return a minimum spanning forest computed by Prim's algorithm.

    If ``root`` is given, the tree containing it is grown first; other
    components (if any) are then processed in vertex-iteration order.
    """
    forest = graph.empty_spanning_subgraph()
    if graph.number_of_vertices == 0:
        return forest
    if root is not None and not graph.has_vertex(root):
        raise VertexNotFoundError(root)

    visited: set[Vertex] = set()
    start_order = list(graph.vertices())
    if root is not None:
        start_order.remove(root)
        start_order.insert(0, root)

    push = heapq.heappush
    pop = heapq.heappop
    incident = graph.incident
    for start in start_order:
        if start in visited:
            continue
        visited.add(start)
        heap: list[tuple[float, int, Vertex, Vertex]] = []
        counter = 0
        for neighbour, weight in incident(start):
            push(heap, (weight, counter, start, neighbour))
            counter += 1
        while heap:
            weight, _, u, v = pop(heap)
            if v in visited:
                continue
            visited.add(v)
            forest.add_edge(u, v, weight)
            for neighbour, edge_weight in incident(v):
                if neighbour not in visited:
                    counter += 1
                    push(heap, (edge_weight, counter, v, neighbour))
    return forest


def is_spanning_tree(graph: WeightedGraph, tree: WeightedGraph) -> bool:
    """Return True if ``tree`` is a spanning tree of ``graph``.

    A spanning tree must cover every vertex, have exactly ``n - 1`` edges, all
    of them edges of ``graph``, and be connected (acyclicity follows from the
    edge count).
    """
    n = graph.number_of_vertices
    if tree.number_of_vertices != n or tree.number_of_edges != n - 1:
        return False
    for vertex in graph.vertices():
        if not tree.has_vertex(vertex):
            return False
    components = DisjointSet(tree.vertices())
    for u, v, _ in tree.edges():
        if not graph.has_edge(u, v):
            return False
        if not components.union(u, v):
            return False
    return len({components.find(vertex) for vertex in tree.vertices()}) == 1


def contains_spanning_tree_edges(spanner: WeightedGraph, tree: WeightedGraph) -> bool:
    """Return True if every edge of ``tree`` is an edge of ``spanner``.

    This is the check behind Observation 2: the greedy spanner contains all
    edges of some MST of the input graph.
    """
    return all(spanner.has_edge(u, v) for u, v, _ in tree.edges())


def bfs_hop_distances(graph: WeightedGraph, source: Vertex) -> dict[Vertex, int]:
    """Return unweighted (hop-count) distances from ``source``."""
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    hops: dict[Vertex, int] = {source: 0}
    queue: deque[Vertex] = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbour in graph.neighbours(vertex):
            if neighbour not in hops:
                hops[neighbour] = hops[vertex] + 1
                queue.append(neighbour)
    return hops


def dfs_order(graph: WeightedGraph, source: Vertex) -> list[Vertex]:
    """Return the vertices reachable from ``source`` in depth-first (preorder)."""
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    order: list[Vertex] = []
    visited: set[Vertex] = set()
    stack: list[Vertex] = [source]
    while stack:
        vertex = stack.pop()
        if vertex in visited:
            continue
        visited.add(vertex)
        order.append(vertex)
        # Push neighbours in reverse so iteration order matches a recursive DFS.
        stack.extend(reversed(list(graph.neighbours(vertex))))
    return order


def is_forest(graph: WeightedGraph) -> bool:
    """Return True if the graph contains no cycle."""
    visited: set[Vertex] = set()
    for root in graph.vertices():
        if root in visited:
            continue
        # Iterative DFS tracking the parent to detect a back edge.
        stack: list[tuple[Vertex, Optional[Vertex]]] = [(root, None)]
        parents: dict[Vertex, Optional[Vertex]] = {root: None}
        while stack:
            vertex, parent = stack.pop()
            if vertex in visited:
                continue
            visited.add(vertex)
            for neighbour in graph.neighbours(vertex):
                if neighbour == parent:
                    continue
                if neighbour in visited:
                    return False
                stack.append((neighbour, vertex))
                parents[neighbour] = vertex
    return True


def is_tree(graph: WeightedGraph) -> bool:
    """Return True if the graph is connected and acyclic."""
    return (
        graph.number_of_vertices > 0
        and graph.number_of_edges == graph.number_of_vertices - 1
        and is_connected(graph)
    )


def spanning_forest(graph: WeightedGraph) -> WeightedGraph:
    """Return an arbitrary spanning forest (BFS trees of each component)."""
    forest = graph.empty_spanning_subgraph()
    visited: set[Vertex] = set()
    for root in graph.vertices():
        if root in visited:
            continue
        visited.add(root)
        queue: deque[Vertex] = deque([root])
        while queue:
            vertex = queue.popleft()
            for neighbour, weight in graph.incident(vertex):
                if neighbour not in visited:
                    visited.add(neighbour)
                    forest.add_edge(vertex, neighbour, weight)
                    queue.append(neighbour)
    return forest


def vertices_within_hops(
    graph: WeightedGraph, source: Vertex, hops: int
) -> Iterator[Vertex]:
    """Yield the vertices at hop distance at most ``hops`` from ``source``."""
    for vertex, hop in bfs_hop_distances(graph, source).items():
        if hop <= hops:
            yield vertex


def to_networkx(graph: WeightedGraph) -> nx.Graph:
    """Convert to a :class:`networkx.Graph` with a ``weight`` edge attribute."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_weighted_edges_from(graph.edges())
    return nx_graph


def from_networkx(nx_graph: nx.Graph, *, default_weight: float = 1.0) -> WeightedGraph:
    """Convert from a :class:`networkx.Graph`.

    Missing ``weight`` attributes default to ``default_weight``.  Directed or
    multi-graphs are rejected.
    """
    if nx_graph.is_directed() or nx_graph.is_multigraph():
        raise GraphError("only simple undirected networkx graphs are supported")
    graph = WeightedGraph(vertices=nx_graph.nodes())
    for u, v, data in nx_graph.edges(data=True):
        graph.add_edge(u, v, data.get("weight", default_weight))
    return graph


def reference_bucketed_geometric_graph(
    n: int,
    radius: float,
    *,
    seed: Optional[int] = None,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """The per-pair loop the array generator
    :func:`repro.graph.generators.bucketed_geometric_graph` replaced.

    A dict of cells of side ``radius``; every pair of 3×3-neighbouring
    points is tested and added by one ``add_edge``, ``u`` ascending, then
    the offset ``(dx, dy)`` in row-major order, then ``v`` ascending; the
    components (a BFS) are chained between consecutive minima.  The array
    generator must return this graph bit for bit.
    """
    if radius <= 0.0:
        raise GraphError("radius must be positive")
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    graph = WeightedGraph(vertices=range(n))

    cells: dict[tuple[int, int], list[int]] = {}
    inv = 1.0 / radius
    cell_of = [(int(x * inv), int(y * inv)) for x, y in points]
    for vid, cell in enumerate(cell_of):
        cells.setdefault(cell, []).append(vid)

    r_sq = radius * radius
    for u in range(n):
        ux, uy = points[u]
        cx, cy = cell_of[u]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = cells.get((cx + dx, cy + dy))
                if bucket is None:
                    continue
                for v in bucket:
                    if v <= u:
                        continue
                    vx, vy = points[v]
                    d_sq = (ux - vx) ** 2 + (uy - vy) ** 2
                    if d_sq <= r_sq and d_sq > 0.0:
                        graph.add_edge(u, v, math.sqrt(d_sq))

    if ensure_connected and n > 1:
        components = connected_components(graph)
        if len(components) > 1:
            reps = [min(component) for component in components]
            reps.sort()
            for a, b in zip(reps, reps[1:]):
                ax, ay = points[a]
                bx, by = points[b]
                d = math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)
                graph.add_edge(a, b, d if d > 0.0 else radius)
    return graph
