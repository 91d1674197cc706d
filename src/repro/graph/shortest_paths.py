"""Shortest-path algorithms on :class:`~repro.graph.weighted_graph.WeightedGraph`.

The greedy spanner algorithm (Algorithm 1 of the paper) repeatedly asks
"what is the distance between u and v in the *current* spanner H?" and
compares it to ``t * w(u, v)``.  This module provides the distance machinery:

* :func:`dijkstra` — single-source distances (optionally with predecessors),
* :func:`dijkstra_with_cutoff` — a *bounded* single-pair Dijkstra: the search
  stops as soon as the distance to the target is resolved or provably
  exceeds a cutoff (the girth computation's detour test),
* :func:`dijkstra_with_cutoff_stats` — the same search, additionally
  reporting how many vertices it settled (the bounded oracle's operation
  count),
* :func:`pair_distance` — distance between a single pair,
* :func:`shortest_path` — an explicit shortest path as a vertex list,
* :func:`single_source_distances` — every reachable vertex's distance (the
  rows of the metric ``M_G`` of Section 2).

The ``indexed_*`` variants run on the dense-integer
:class:`~repro.graph.indexed_graph.IndexedGraph` representation and are the
hot-path versions used by the band builder's replay and the overlays (see
``docs/PERFORMANCE.md``):

* :func:`indexed_bidirectional_cutoff` — meet-in-the-middle bounded search:
  two half-radius balls instead of one full-radius ball (the band
  builder's replay),
* :func:`indexed_sssp` / :func:`indexed_eccentricity` /
  :func:`indexed_weighted_diameter` / :func:`indexed_double_sweep_diameter` —
  full single-source sweeps with flat distance/parent arrays: the
  routing-table and synchronizer kernels of the distributed overlay engine
  (:mod:`repro.distributed`).

Each search kind has exactly one kernel here: a lazy C :mod:`heapq` loop
over the list-of-lists adjacency with ``(dist, vertex)`` entries.  Because
that priority order is *total* (vertex ids are unique), every run pops an
identical sequence with IEEE-identical float64 sums, so settled maps and
operation counts are deterministic.  Two searches run on weight-sorted
rows instead: the greedy builders' ball
(:class:`~repro.core.distance_oracle.CoverageIndex`) and the edge check of
:mod:`repro.spanners.verification`, which also certifies Lemma 3.
``tests/graph/test_csr_equivalence.py`` checks every kernel against the
:class:`WeightedGraph` seed searches above.

All functions treat unreachable vertices as being at distance ``math.inf``.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from typing import Optional

from repro.errors import VertexNotFoundError
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.weighted_graph import Vertex, WeightedGraph

Distances = dict[Vertex, float]
Predecessors = dict[Vertex, Optional[Vertex]]


def dijkstra(
    graph: WeightedGraph,
    source: Vertex,
    *,
    targets: Optional[Iterable[Vertex]] = None,
) -> tuple[Distances, Predecessors]:
    """Run Dijkstra's algorithm from ``source``.

    Parameters
    ----------
    graph:
        The weighted graph to search.
    source:
        The source vertex.
    targets:
        If given, the search stops as soon as every target has been settled.

    Returns
    -------
    (distances, predecessors):
        ``distances`` maps every settled vertex to its distance from
        ``source``; ``predecessors`` maps it to the previous vertex on a
        shortest path (``None`` for the source).  Vertices that were not
        settled do not appear in either dictionary.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)

    remaining_targets = set(targets) if targets is not None else None
    if remaining_targets is not None:
        remaining_targets.discard(source)

    distances: Distances = {}
    predecessors: Predecessors = {}
    heap: list[tuple[float, int, Vertex, Optional[Vertex]]] = [(0.0, 0, source, None)]
    counter = 0
    push = heapq.heappush
    pop = heapq.heappop
    incident = graph.incident

    while heap:
        dist, _, vertex, parent = pop(heap)
        if vertex in distances:
            continue
        distances[vertex] = dist
        predecessors[vertex] = parent

        if remaining_targets is not None:
            remaining_targets.discard(vertex)
            if not remaining_targets:
                break

        for neighbour, weight in incident(vertex):
            if neighbour in distances:
                continue
            counter += 1
            push(heap, (dist + weight, counter, neighbour, vertex))

    return distances, predecessors


def dijkstra_with_cutoff(
    graph: WeightedGraph,
    source: Vertex,
    target: Vertex,
    cutoff: float,
) -> float:
    """Return ``δ(source, target)`` if it is at most ``cutoff``, else ``math.inf``.

    This is the bounded single-pair query used by the greedy algorithm: to
    decide whether to add an edge ``(u, v)`` it only needs to know whether
    ``δ_H(u, v) ≤ t · w(u, v)``; the search is pruned as soon as the frontier
    distance exceeds the cutoff.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if not graph.has_vertex(target):
        raise VertexNotFoundError(target)
    distance, _ = dijkstra_with_cutoff_stats(graph, source, target, cutoff)
    return distance


def dijkstra_with_cutoff_stats(
    graph: WeightedGraph,
    source: Vertex,
    target: Vertex,
    cutoff: float,
) -> tuple[float, int]:
    """Bounded single-pair Dijkstra returning ``(distance, settled_count)``.

    The single shared implementation behind :func:`dijkstra_with_cutoff` and
    :class:`~repro.core.distance_oracle.BoundedDijkstraOracle`, so pruning
    tweaks land in one place.  ``distance`` is ``δ(source, target)`` if it is
    at most ``cutoff`` and ``math.inf`` otherwise; ``settled_count`` is the
    number of vertices the search settled (the operation count the
    experiments report).  Endpoints are assumed present in the graph.
    """
    if source == target:
        return 0.0, 0

    settled: set[Vertex] = set()
    heap: list[tuple[float, int, Vertex]] = [(0.0, 0, source)]
    counter = 0
    push = heapq.heappush
    pop = heapq.heappop
    incident = graph.incident

    while heap:
        dist, _, vertex = pop(heap)
        if dist > cutoff:
            return math.inf, len(settled)
        if vertex in settled:
            continue
        settled.add(vertex)
        if vertex == target:
            return dist, len(settled)
        for neighbour, weight in incident(vertex):
            if neighbour in settled:
                continue
            new_dist = dist + weight
            if new_dist <= cutoff:
                counter += 1
                push(heap, (new_dist, counter, neighbour))

    return math.inf, len(settled)


# ----------------------------------------------------------------------
# Indexed (dense integer id) fast-path searches
# ----------------------------------------------------------------------
def indexed_bidirectional_cutoff(
    graph: IndexedGraph,
    source: int,
    target: int,
    cutoff: float,
) -> tuple[float, dict[int, float], dict[int, float]]:
    """Bounded *bidirectional* Dijkstra over an :class:`IndexedGraph`.

    Meet-in-the-middle search: grow a ball around ``source`` and a ball around
    ``target`` simultaneously, always expanding the shallower frontier, and
    stop when the frontiers certify the best meeting point.  Each ball only
    needs radius ``≈ δ/2``, and on dense graphs the ball volume grows
    super-linearly with the radius, so two half-balls settle far fewer
    vertices than one full ball (see ``docs/PERFORMANCE.md``).

    Returns ``(distance, settled_forward, settled_backward)``: ``distance`` is
    exactly ``δ(source, target)`` if at most ``cutoff``, else ``math.inf``;
    the settled maps hold exact distances from ``source`` (resp. to
    ``target``) for every settled vertex — their sizes are the search's
    operation count.
    """
    if source == target:
        return 0.0, {source: 0.0}, {target: 0.0}
    neighbour_ids, neighbour_weights = graph.adjacency_arrays()
    inf = math.inf
    best = inf
    dist_f: dict[int, float] = {source: 0.0}
    dist_b: dict[int, float] = {target: 0.0}
    settled_f: dict[int, float] = {}
    settled_b: dict[int, float] = {}
    heap_f: list[tuple[float, int]] = [(0.0, source)]
    heap_b: list[tuple[float, int]] = [(0.0, target)]
    push = heapq.heappush
    pop = heapq.heappop
    get_f = dist_f.get
    get_b = dist_b.get

    while heap_f and heap_b:
        top_f = heap_f[0][0]
        top_b = heap_b[0][0]
        # Any s-t path not yet recorded in `best` has length at least
        # top_f + top_b, so `best` is final once the frontiers cross it —
        # and the pair is beyond the cutoff once the frontier sum is.
        frontier_sum = top_f + top_b
        if frontier_sum >= best or frontier_sum > cutoff:
            break
        if top_f <= top_b:
            heap, settled, dist_this = heap_f, settled_f, dist_f
            get_this, get_other = get_f, get_b
        else:
            heap, settled, dist_this = heap_b, settled_b, dist_b
            get_this, get_other = get_b, get_f
        dist, vertex = pop(heap)
        if vertex in settled:
            continue
        settled[vertex] = dist
        for neighbour, weight in zip(neighbour_ids[vertex], neighbour_weights[vertex]):
            if neighbour in settled:
                continue
            new_dist = dist + weight
            if new_dist > cutoff or new_dist >= get_this(neighbour, inf):
                continue
            dist_this[neighbour] = new_dist
            push(heap, (new_dist, neighbour))
            other = get_other(neighbour)
            if other is not None and new_dist + other < best:
                best = new_dist + other

    if best <= cutoff:
        return best, settled_f, settled_b
    return math.inf, settled_f, settled_b


def indexed_sssp(graph: IndexedGraph, source: int) -> tuple[list[float], list[int], int]:
    """Full single-source Dijkstra over an :class:`IndexedGraph`.

    The routing-table kernel of :mod:`repro.distributed.routing`: one call
    fills one destination's whole next-hop column, so building compact
    routing tables is ``n`` flat-array sweeps instead of ``n`` dict-based
    searches.

    Returns ``(dist, parent, settles)`` as flat id-indexed arrays:
    ``dist[v]`` is ``δ(source, v)`` (``math.inf`` when unreachable),
    ``parent[v]`` the previous vertex id on a shortest path from ``source``
    (``-1`` for the source itself and for unreachable vertices), and
    ``settles`` the number of heap pops *including stale entries* — the
    search's true work, which unlike the settled-vertex count (always ``n``
    for a full sweep) varies with the overlay's density and is the
    operation count the overlay bench gates on.
    """
    neighbour_ids, neighbour_weights = graph.adjacency_arrays()
    n = graph.number_of_vertices
    inf = math.inf
    dist: list[float] = [inf] * n
    parent: list[int] = [-1] * n
    dist[source] = 0.0
    settles = 0
    heap: list[tuple[float, int]] = [(0.0, source)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, vertex = pop(heap)
        settles += 1
        if d > dist[vertex]:
            continue  # stale entry superseded by a strict improvement
        for neighbour, weight in zip(neighbour_ids[vertex], neighbour_weights[vertex]):
            new_dist = d + weight
            if new_dist < dist[neighbour]:
                dist[neighbour] = new_dist
                parent[neighbour] = vertex
                push(heap, (new_dist, neighbour))
    return dist, parent, settles


def indexed_eccentricity(graph: IndexedGraph, source: int) -> tuple[float, int]:
    """Return ``(eccentricity, settles)`` of ``source`` on the indexed fast path.

    The eccentricity is ``math.inf`` when some vertex is unreachable.
    """
    dist, _, settles = indexed_sssp(graph, source)
    farthest = max(dist, default=0.0)
    return farthest, settles


def indexed_weighted_diameter(graph: IndexedGraph) -> tuple[float, int]:
    """Exact weighted diameter via ``n`` indexed sweeps.

    Returns ``(diameter, total_settles)``; the diameter is ``math.inf`` for
    a disconnected graph.  Produces the same float as the seed dict-Dijkstra
    diameter (``tests/oracles/distributed.py``) — Dijkstra's settled
    distances are the unique fixpoint of the relaxation, independent of heap
    tie-breaking — at a fraction of the constant factor.
    """
    diameter = 0.0
    total_settles = 0
    for source in range(graph.number_of_vertices):
        ecc, settles = indexed_eccentricity(graph, source)
        total_settles += settles
        if math.isinf(ecc):
            return math.inf, total_settles
        diameter = max(diameter, ecc)
    return diameter, total_settles


def indexed_double_sweep_diameter(graph: IndexedGraph) -> tuple[float, int]:
    """Double-sweep lower bound on the weighted diameter (two sweeps total).

    Sweep from vertex 0 to find the farthest vertex ``u``, then sweep from
    ``u``; the second eccentricity is a classic diameter lower bound (exact
    on trees).  Returns ``(estimate, settles)``; ``math.inf`` when
    disconnected.  The overlay bench uses this at ``n = 10⁴``, where the
    exact ``n``-sweep diameter is the only remaining quadratic step.
    """
    if graph.number_of_vertices == 0:
        return 0.0, 0
    dist, _, settles_first = indexed_sssp(graph, 0)
    farthest = max(range(len(dist)), key=dist.__getitem__)
    if math.isinf(dist[farthest]):
        return math.inf, settles_first
    ecc, settles_second = indexed_eccentricity(graph, farthest)
    return ecc, settles_first + settles_second


def pair_distance(graph: WeightedGraph, source: Vertex, target: Vertex) -> float:
    """Return the exact distance between ``source`` and ``target`` (inf if disconnected)."""
    distances, _ = dijkstra(graph, source, targets=[target])
    return distances.get(target, math.inf)


def shortest_path(
    graph: WeightedGraph, source: Vertex, target: Vertex
) -> Optional[list[Vertex]]:
    """Return a shortest path from ``source`` to ``target`` as a vertex list.

    Returns ``None`` if the target is unreachable.  The path includes both
    endpoints; for ``source == target`` it is ``[source]``.
    """
    if source == target:
        if not graph.has_vertex(source):
            raise VertexNotFoundError(source)
        return [source]
    distances, predecessors = dijkstra(graph, source, targets=[target])
    if target not in distances:
        return None
    path: list[Vertex] = [target]
    current: Optional[Vertex] = target
    while current != source:
        current = predecessors[current]
        path.append(current)
    path.reverse()
    return path


def single_source_distances(graph: WeightedGraph, source: Vertex) -> Distances:
    """Return distances from ``source`` to every reachable vertex."""
    distances, _ = dijkstra(graph, source)
    return distances
