"""A weighted, undirected graph with positive edge weights.

This is the primary substrate of the reproduction: every spanner algorithm in
the paper operates on a graph ``G = (V, E, w)`` with positive edge weights
(Section 2 of the paper).  The implementation is an adjacency-dict structure
optimised for the access patterns of the spanner algorithms:

* iterate over edges sorted by weight (the greedy algorithm's outer loop),
* run Dijkstra from a vertex (the greedy algorithm's inner query),
* add edges incrementally while keeping adjacency consistent,
* copy / take subgraphs cheaply.

Vertices may be arbitrary hashable objects (integers, tuples, strings).
Self-loops are rejected; parallel edges are not representable (adding an
existing edge overwrites its weight).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from itertools import chain
from typing import Optional

import numpy as np

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    SelfLoopError,
    VertexNotFoundError,
)

Vertex = Hashable
Edge = tuple[Vertex, Vertex]
WeightedEdge = tuple[Vertex, Vertex, float]
EdgeArrays = tuple[tuple[Vertex, ...], np.ndarray, np.ndarray, np.ndarray]
_INF = float("inf")


def _validate_weight(weight: float) -> float:
    """Return ``weight`` as a float, raising if it is not positive and finite."""
    try:
        value = float(weight)
    except (TypeError, ValueError) as exc:
        raise InvalidWeightError(f"edge weight {weight!r} is not a number") from exc
    if value <= 0.0:
        raise InvalidWeightError(f"edge weight must be positive, got {value}")
    if value != value or value == float("inf"):
        raise InvalidWeightError(f"edge weight must be finite, got {value}")
    return value


def repr_ranks(vertices: Sequence[Vertex]) -> np.ndarray:
    """Return each vertex's rank in the sorted order of the vertices' ``repr``.

    ``repr`` runs once per vertex.  The result is an int64 array aligned
    with ``vertices``; vertices whose ``repr`` strings are equal get equal
    ranks, so comparing ranks is exactly comparing ``repr`` strings.
    """
    reprs = [repr(vertex) for vertex in vertices]
    position = {text: rank for rank, text in enumerate(sorted(set(reprs)))}
    return np.fromiter(map(position.__getitem__, reprs), dtype=np.int64, count=len(reprs))


def canonical_order(
    u_ids: np.ndarray, v_ids: np.ndarray, weights: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """Return the permutation that sorts edges by ``(weight, repr(u), repr(v))``.

    Edge ``k`` joins vertex ids ``u_ids[k]`` and ``v_ids[k]`` with weight
    ``weights[k]``; ``ranks`` is :func:`repr_ranks` over the ids.  This is the
    greedy algorithm's examination order (Algorithm 1, line 2).
    ``numpy.lexsort`` is stable, so edges with equal keys keep their input
    order, exactly as ``sorted`` with that key would.
    """
    return np.lexsort((ranks[v_ids], ranks[u_ids], weights))


def _check_edge_arrays(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """Raise as :meth:`WeightedGraph.from_edge_arrays` documents."""
    if n < 0:
        raise GraphError(f"n must be non-negative, got {n}")
    if u.ndim != 1 or u.shape != v.shape or u.shape != w.shape:
        raise GraphError("u_ids, v_ids and weights must be 1-D arrays of one length")
    outside = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
    if outside.size:
        k = int(outside[0])
        raise VertexNotFoundError(int(u[k]) if not 0 <= u[k] < n else int(v[k]))
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise SelfLoopError(f"self-loop on vertex {int(u[loops[0]])} is not allowed")
    bad = np.flatnonzero(~((w > 0.0) & (w < _INF)))
    if bad.size:
        _validate_weight(float(w[bad[0]]))
    pairs = np.minimum(u, v) * n + np.maximum(u, v)
    pairs = pairs[np.argsort(pairs, kind="stable")]  # see from_edge_arrays
    if np.flatnonzero(np.diff(pairs) == 0).size:
        raise GraphError("an unordered pair of vertex ids appears twice")


class WeightedGraph:
    """An undirected graph with positive edge weights.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of ``(u, v, weight)`` triples.  Endpoints that are
        not already vertices are added automatically.

    Examples
    --------
    >>> g = WeightedGraph()
    >>> g.add_edge("a", "b", 2.0)
    >>> g.add_edge("b", "c", 1.5)
    >>> g.number_of_vertices, g.number_of_edges
    (3, 2)
    >>> g.weight("a", "b")
    2.0
    """

    __slots__ = ("_adjacency", "_edge_count", "_arrays")

    def __init__(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        edges: Optional[Iterable[WeightedEdge]] = None,
    ) -> None:
        self._adjacency: dict[Vertex, dict[Vertex, float]] = {}
        self._edge_count = 0
        self._arrays: Optional[EdgeArrays] = None
        if vertices is not None:
            for vertex in vertices:
                self.add_vertex(vertex)
        if edges is not None:
            for u, v, weight in edges:
                self.add_edge(u, v, weight)

    @classmethod
    def from_edge_arrays(
        cls, n: int, u_ids: np.ndarray, v_ids: np.ndarray, weights: np.ndarray
    ) -> "WeightedGraph":
        """Return the graph on ``0 .. n-1`` whose edge ``k`` joins ``u_ids[k]``
        and ``v_ids[k]`` with weight ``weights[k]``.

        The result equals ``WeightedGraph(range(n))`` followed by one
        ``add_edge`` per ``k`` in array order: the same rows, in the same
        order, with one int object per vertex and one float object per edge
        shared by both rows.  Each row is built by one ``dict(zip(...))``,
        and :meth:`edge_arrays` comes back memoized without a pass over the
        rows.  Raises :class:`VertexNotFoundError` for an id outside
        ``0 .. n-1``, :class:`SelfLoopError`, :class:`InvalidWeightError`
        for a weight that is not positive and finite, and
        :class:`GraphError` for a repeated pair (which ``add_edge`` would
        overwrite).
        """
        u = np.asarray(u_ids, dtype=np.int64)
        v = np.asarray(v_ids, dtype=np.int64)
        w = np.asarray(weights, dtype=float)
        _check_edge_arrays(n, u, v, w)
        # Slot 2k is edge k in u's row, slot 2k + 1 in v's; a stable sort by
        # row owner leaves every row's slots in edge order.  Every sort here
        # is numpy's stable one, which canonical_order's lexsort runs anyway:
        # the default sort would page in about 0.25 MB more of numpy's code.
        owner = np.column_stack((u, v)).ravel()
        slots = np.argsort(owner, kind="stable")
        owner = owner[slots]
        target = np.column_stack((v, u)).ravel()[slots]
        keep = target > owner  # each edge once, as edges() yields it
        arrays = (owner[keep], target[keep], w[slots[keep] >> 1])
        for array in arrays:
            array.flags.writeable = False
        ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
        # Each array is dropped once spent: the rows below are the peak.
        del owner, keep
        vertices = tuple(range(n))
        # A take from an object array shares its objects: one float per
        # edge and one int per vertex, as add_edge stores them.
        values = np.array(w.tolist(), dtype=object)[slots >> 1].tolist()
        del slots
        targets = np.array(vertices, dtype=object)[target].tolist()
        del target
        graph = cls()
        graph._adjacency = {
            vertex: dict(zip(targets[start:end], values[start:end]))
            for vertex, start, end in zip(vertices, [0, *ends], ends)
        }
        graph._edge_count = w.size
        graph._arrays = (vertices, *arrays)
        return graph

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` to the graph (a no-op if it is already present)."""
        if vertex not in self._adjacency:
            self._adjacency[vertex] = {}
            self._arrays = None

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex in ``vertices``."""
        for vertex in vertices:
            self.add_vertex(vertex)

    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Add the undirected edge ``(u, v)`` with the given positive weight.

        Missing endpoints are created.  If the edge already exists its weight
        is overwritten.  A rejected weight changes nothing.
        """
        if u == v:
            raise SelfLoopError(f"self-loop on vertex {u!r} is not allowed")
        if type(weight) is not float or not 0.0 < weight < _INF:
            weight = _validate_weight(weight)
        row_u = self._adjacency.setdefault(u, {})
        row_v = self._adjacency.setdefault(v, {})
        if v not in row_u:
            self._edge_count += 1
        row_u[v] = weight
        row_v[u] = weight
        self._arrays = None

    def add_edges(self, edges: Iterable[WeightedEdge]) -> None:
        """Add every ``(u, v, weight)`` triple in ``edges``."""
        for u, v, weight in edges:
            self.add_edge(u, v, weight)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``; raise :class:`EdgeNotFoundError` if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._edge_count -= 1
        self._arrays = None

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all incident edges."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        for neighbour in list(self._adjacency[vertex]):
            del self._adjacency[neighbour][vertex]
        self._edge_count -= len(self._adjacency[vertex])
        del self._adjacency[vertex]
        self._arrays = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def number_of_vertices(self) -> int:
        """The number of vertices ``n``."""
        return len(self._adjacency)

    @property
    def number_of_edges(self) -> int:
        """The number of edges ``m`` (maintained incrementally; O(1)).

        ``Spanner`` metadata and ``same_edges`` read this inside hot loops, so
        it is a cached counter rather than a sum over the adjacency dicts.
        """
        return self._edge_count

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return True if ``vertex`` is in the graph."""
        return vertex in self._adjacency

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True if the edge ``(u, v)`` is in the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Return the weight of the edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._adjacency[u][v]

    def degree(self, vertex: Vertex) -> int:
        """Return the number of edges incident on ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        return len(self._adjacency[vertex])

    def max_degree(self) -> int:
        """Return the maximum degree Δ over all vertices (0 for an empty graph)."""
        if not self._adjacency:
            return 0
        return max(len(nbrs) for nbrs in self._adjacency.values())

    def neighbours(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate over the neighbours of ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        return iter(self._adjacency[vertex])

    def incident(self, vertex: Vertex) -> Iterator[tuple[Vertex, float]]:
        """Iterate over ``(neighbour, weight)`` pairs incident on ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        return iter(self._adjacency[vertex].items())

    def adjacency(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a read-only view of the neighbour-to-weight mapping of ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        return dict(self._adjacency[vertex])

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over the vertices."""
        return iter(self._adjacency)

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over edges as ``(u, v, weight)``, each undirected edge once,
        from the endpoint that was added to the graph first."""
        rank = {v: i for i, v in enumerate(self._adjacency)}
        for iu, (u, nbrs) in enumerate(self._adjacency.items()):
            for v, weight in nbrs.items():
                if rank[v] >= iu:
                    yield (u, v, weight)

    def edge_arrays(self) -> EdgeArrays:
        """Return the edges as ``(vertices, u_ids, v_ids, weights)`` arrays.

        Vertex ``vertices[i]`` (insertion order) has id ``i``; edge ``k`` is
        ``(vertices[u_ids[k]], vertices[v_ids[k]], weights[k])`` in :meth:`edges`
        order, so ``u_ids[k] < v_ids[k]`` and ``u_ids`` is non-decreasing.  Built
        in one pass, memoized (read-only arrays) and dropped by every mutator.
        """
        if self._arrays is None:
            vertices = tuple(self._adjacency)
            rows = self._adjacency.values()
            index = {vertex: i for i, vertex in enumerate(vertices)}
            n, slots = len(vertices), 2 * self._edge_count
            sources = np.repeat(np.arange(n, dtype=np.int64), np.fromiter(map(len, rows), int, n))
            targets = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)), int, slots)
            weights = np.fromiter(chain.from_iterable(map(dict.values, rows)), float, slots)
            keep = targets > sources  # each edge once, as edges() yields it
            arrays = (sources[keep], targets[keep], weights[keep])
            for array in arrays:
                array.flags.writeable = False
            self._arrays = (vertices, *arrays)
        return self._arrays

    def edges_sorted_by_weight(self) -> list[WeightedEdge]:
        """Return the edges sorted by non-decreasing weight.

        This is exactly the examination order of the greedy algorithm
        (Algorithm 1, line 2 of the paper).  Ties are broken by the string
        representation of the endpoints, ``(weight, repr(u), repr(v))``, so
        that the order — and therefore the greedy spanner — is deterministic
        and reproducible across runs.  Edges whose keys are equal keep their
        :meth:`edges` order.

        The order is one :func:`canonical_order` over :meth:`edge_arrays`,
        which the greedy loop walks as ids without building this list.
        """
        vertices, u_ids, v_ids, weights = self.edge_arrays()
        order = canonical_order(u_ids, v_ids, weights, repr_ranks(vertices))
        label = vertices.__getitem__
        us, vs = map(label, u_ids[order].tolist()), map(label, v_ids[order].tolist())
        return list(zip(us, vs, weights[order].tolist()))

    def total_weight(self) -> float:
        """Return ``w(G)``, the sum of all edge weights."""
        return sum(weight for _, _, weight in self.edges())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "WeightedGraph":
        """Return a deep copy of the graph."""
        clone = WeightedGraph()
        for vertex in self._adjacency:
            clone.add_vertex(vertex)
        for u, v, weight in self.edges():
            clone.add_edge(u, v, weight)
        return clone

    def subgraph_with_edges(self, edges: Iterable[Edge]) -> "WeightedGraph":
        """Return the spanning subgraph containing all vertices but only ``edges``.

        Edge weights are taken from this graph; an edge absent from this graph
        raises :class:`EdgeNotFoundError`.
        """
        sub = WeightedGraph(vertices=self._adjacency.keys())
        for u, v in edges:
            sub.add_edge(u, v, self.weight(u, v))
        return sub

    def empty_spanning_subgraph(self) -> "WeightedGraph":
        """Return a graph with the same vertex set and no edges.

        This is line 1 of Algorithm 1: ``H = (V, ∅, w)``.
        """
        return WeightedGraph(vertices=self._adjacency.keys())

    def union_edges(self, other: "WeightedGraph") -> "WeightedGraph":
        """Return a new graph whose edge set is the union of both graphs'.

        If an edge appears in both graphs, the weight from ``self`` wins.
        """
        merged = other.copy()
        for vertex in self._adjacency:
            merged.add_vertex(vertex)
        for u, v, weight in self.edges():
            merged.add_edge(u, v, weight)
        return merged

    # ------------------------------------------------------------------
    # Comparisons and representation
    # ------------------------------------------------------------------
    def same_edges(self, other: "WeightedGraph", tolerance: float = 0.0) -> bool:
        """Return True if both graphs have the same edge set and weights.

        Weights are compared up to an absolute ``tolerance``.
        """
        if self.number_of_edges != other.number_of_edges:
            return False
        for u, v, weight in self.edges():
            if not other.has_edge(u, v):
                return False
            if abs(other.weight(u, v) - weight) > tolerance:
                return False
        return True

    def is_subgraph_of(self, other: "WeightedGraph") -> bool:
        """Return True if every vertex and edge of this graph appears in ``other``."""
        for vertex in self._adjacency:
            if not other.has_vertex(vertex):
                return False
        for u, v, _ in self.edges():
            if not other.has_edge(u, v):
                return False
        return True

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:
        return (
            f"WeightedGraph(n={self.number_of_vertices}, "
            f"m={self.number_of_edges}, w={self.total_weight():.4g})"
        )
