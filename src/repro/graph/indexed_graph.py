"""A dense-integer-indexed graph: the fast-path substrate of the hot loops.

:class:`~repro.graph.weighted_graph.WeightedGraph` stores adjacency as a
dict-of-dicts keyed by arbitrary hashable vertices, which is the right
interface for the algorithm code but pays a hash lookup per edge relaxation.
The greedy spanner's inner distance query (Algorithm 1 of the paper) relaxes
edges millions of times, so :class:`IndexedGraph` provides an equivalent
representation optimised for exactly that access pattern:

* vertices are *interned* to dense integer ids ``0..n-1`` in first-seen
  order, so Dijkstra state (distances, settled marks) can live in flat lists
  indexed by id instead of hash tables keyed by vertex objects;
* adjacency is stored as parallel ``list[int]`` / ``list[float]`` arrays per
  vertex, giving O(1) amortised edge append and cache-friendly relaxation
  loops (``zip`` over two flat lists, no dict iteration);
* the edge count is cached and maintained incrementally, and
  :meth:`edges` yields each undirected edge exactly once in id order without
  the per-edge ``seen``-set of the dict representation.

The indexed search routines that run on this structure live in
:mod:`repro.graph.shortest_paths` (``indexed_bidirectional_cutoff``,
``indexed_sssp``); the band builder's replay, the verification engine's
stretch profile and the distributed overlays are their consumers.  The query engine keeps
its own search on this structure.  See ``docs/PERFORMANCE.md`` for
measurements.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Optional

from repro.errors import SelfLoopError
from repro.graph.weighted_graph import Vertex, WeightedEdge, WeightedGraph, _validate_weight


class IndexedGraph:
    """An undirected positively weighted graph over dense integer vertex ids.

    The public mutation API mirrors :class:`WeightedGraph` semantics (adding
    an existing edge overwrites its weight; self-loops are rejected), but all
    queries are id-based.  Use :meth:`intern` / :meth:`vertex_of` to translate
    between external vertex objects and ids.

    Examples
    --------
    >>> g = IndexedGraph()
    >>> g.add_edge("a", "b", 2.0)
    >>> g.add_edge("b", "c", 1.5)
    >>> g.number_of_vertices, g.number_of_edges
    (3, 2)
    >>> g.intern("a"), g.intern("c")
    (0, 2)
    """

    __slots__ = (
        "_id_of",
        "_vertex_of",
        "_neighbour_ids",
        "_neighbour_weights",
        "_edge_count",
        "_version",
    )

    def __init__(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        edges: Optional[Iterable[WeightedEdge]] = None,
    ) -> None:
        self._id_of: dict[Vertex, int] = {}
        self._vertex_of: list[Vertex] = []
        self._neighbour_ids: list[list[int]] = []
        self._neighbour_weights: list[list[float]] = []
        self._edge_count = 0
        self._version = 0
        if vertices is not None:
            for vertex in vertices:
                self.intern(vertex)
        if edges is not None:
            for u, v, weight in edges:
                self.add_edge(u, v, weight)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern(self, vertex: Vertex) -> int:
        """Return the dense id of ``vertex``, assigning the next free id if new."""
        vid = self._id_of.get(vertex)
        if vid is None:
            vid = len(self._vertex_of)
            self._id_of[vertex] = vid
            self._vertex_of.append(vertex)
            self._neighbour_ids.append([])
            self._neighbour_weights.append([])
            self._version += 1
        return vid

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Intern ``vertices`` in iteration order (batch form of :meth:`intern`).

        Interning is *stable*: ids already assigned never move, and new ids
        continue from the current count (a consumer can cache ids across
        arbitrarily many later appends).
        """
        for vertex in vertices:
            self.intern(vertex)

    def id_of(self, vertex: Vertex) -> int:
        """Return the id of ``vertex``; raise :class:`KeyError` if unknown."""
        return self._id_of[vertex]

    def id_map(self) -> Mapping[Vertex, int]:
        """The live vertex → id mapping, for bulk read-only lookups.

        Hot loops that translate millions of already-interned vertices (the
        band filter's first pass) bind this once and subscript it directly —
        a plain dict access instead of a method call per edge endpoint.
        Callers must not mutate it; use :meth:`intern` / :meth:`add_vertices`
        to assign ids.
        """
        return self._id_of

    def vertex_of(self, vid: int) -> Vertex:
        """Return the vertex object interned at ``vid``."""
        return self._vertex_of[vid]

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return True if ``vertex`` has been interned."""
        return vertex in self._id_of

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Add (or overwrite) the undirected edge ``(u, v)``, interning endpoints."""
        if u == v:
            raise SelfLoopError(f"self-loop on vertex {u!r} is not allowed")
        uid, vid = self.intern(u), self.intern(v)
        value = _validate_weight(weight)
        nbrs = self._neighbour_ids[uid]
        try:
            slot = nbrs.index(vid)
        except ValueError:
            self._append_half_edge(uid, vid, value)
            self._append_half_edge(vid, uid, value)
            self._edge_count += 1
        else:
            self._neighbour_weights[uid][slot] = value
            back = self._neighbour_ids[vid].index(uid)
            self._neighbour_weights[vid][back] = value
        self._version += 1

    def append_edge_unchecked_ids(self, uid: int, vid: int, weight: float) -> None:
        """Append the edge between the already-interned ids *assuming it is absent*.

        Skips the O(degree) duplicate scan of :meth:`add_edge`, for callers
        that add every edge at most once (the band builder's mirror, the
        verification engine).
        The adjacency arrays are plain Python lists, whose append is
        amortized constant time, so a graph built through this method costs
        O(m) total regardless of interleaving with searches — no
        re-snapshotting needed.  Appending an edge that does already exist
        duplicates the adjacency entry and corrupts the edge count — the
        caller must guarantee absence.
        """
        if uid == vid:
            raise SelfLoopError(f"self-loop on vertex {self._vertex_of[uid]!r} is not allowed")
        value = _validate_weight(weight)
        self._append_half_edge(uid, vid, value)
        self._append_half_edge(vid, uid, value)
        self._edge_count += 1
        self._version += 1

    def _append_half_edge(self, uid: int, vid: int, weight: float) -> None:
        self._neighbour_ids[uid].append(vid)
        self._neighbour_weights[uid].append(weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def number_of_vertices(self) -> int:
        """The number of interned vertices ``n``."""
        return len(self._vertex_of)

    @property
    def number_of_edges(self) -> int:
        """The number of edges ``m`` (cached; O(1))."""
        return self._edge_count

    @property
    def version(self) -> int:
        """A mutation counter: it grows whenever a vertex or edge is added or
        an edge weight is overwritten.

        State derived from the adjacency (a parked search) is valid exactly
        while the version is unchanged.  ``(n, m)`` is not enough: an
        overwrite through :meth:`add_edge` keeps both.
        """
        return self._version

    def weight_ids(self, uid: int, vid: int) -> float:
        """Return the weight of the edge between the two ids.

        Raises :class:`ValueError` if the edge is absent (linear scan of the
        neighbour list — use :meth:`incident_ids` in hot loops).
        """
        slot = self._neighbour_ids[uid].index(vid)
        return self._neighbour_weights[uid][slot]

    def incident_ids(self, vid: int) -> Iterator[tuple[int, float]]:
        """Iterate over ``(neighbour_id, weight)`` pairs of ``vid``."""
        return zip(self._neighbour_ids[vid], self._neighbour_weights[vid])

    def adjacency_arrays(self) -> tuple[list[list[int]], list[list[float]]]:
        """Return the raw parallel adjacency arrays (shared, not copied).

        This is the hot-loop entry point: search routines bind the two lists
        to locals and index them by vertex id, bypassing attribute and method
        lookups entirely.  Callers must not mutate the arrays.
        """
        return self._neighbour_ids, self._neighbour_weights

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(uid, vid, weight)`` with ``uid < vid``.

        Because every edge is stored as two directed half-edges, emitting only
        the ``uid < vid`` orientation enumerates each edge exactly once in id
        order — no ``seen``-set needed, unlike the dict representation.
        """
        for uid, (nbrs, weights) in enumerate(zip(self._neighbour_ids, self._neighbour_weights)):
            for vid, weight in zip(nbrs, weights):
                if uid < vid:
                    yield (uid, vid, weight)

    def vertex_edges(self) -> Iterator[WeightedEdge]:
        """Yield each undirected edge once as ``(u, v, weight)`` vertex objects."""
        vertex_of = self._vertex_of
        for uid, vid, weight in self.edges():
            yield (vertex_of[uid], vertex_of[vid], weight)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_weighted_graph(cls, graph: WeightedGraph) -> "IndexedGraph":
        """Build an indexed copy of ``graph``.

        Ids are assigned in ``graph.vertices()`` iteration order, so two
        conversions of graphs with the same vertex insertion history produce
        identical interning — which keeps id-based tie-breaking deterministic.
        """
        indexed = cls(vertices=graph.vertices())
        id_of = indexed._id_of
        append = indexed._append_half_edge
        count = 0
        for u, v, weight in graph.edges():
            uid, vid = id_of[u], id_of[v]
            # `graph` has no parallel edges, so raw appends are safe and skip
            # the duplicate scan of `add_edge`.
            append(uid, vid, weight)
            append(vid, uid, weight)
            count += 1
        indexed._edge_count = count
        return indexed

    @classmethod
    def from_incidence_of(cls, graph: WeightedGraph) -> "IndexedGraph":
        """Build an indexed copy whose per-vertex adjacency *order* mirrors ``graph``.

        :meth:`from_weighted_graph` appends half-edges in ``graph.edges()``
        order, which interleaves the two endpoints' lists differently from
        the dict representation's per-vertex neighbour order.  The
        distributed simulators care about that order — a flooding vertex
        emits messages to its neighbours in iteration order, and the indexed
        engine must replicate the reference engine's message sequence
        exactly, tie for tie — so this constructor copies each vertex's
        incidence list verbatim instead.
        """
        indexed = cls(vertices=graph.vertices())
        id_of = indexed._id_of
        append = indexed._append_half_edge
        for vertex in graph.vertices():
            vid = id_of[vertex]
            for neighbour, weight in graph.incident(vertex):
                append(vid, id_of[neighbour], weight)
        indexed._edge_count = graph.number_of_edges
        return indexed

    def to_weighted_graph(self) -> WeightedGraph:
        """Materialise the graph back into a :class:`WeightedGraph`."""
        graph = WeightedGraph(vertices=self._vertex_of)
        for u, v, weight in self.vertex_edges():
            graph.add_edge(u, v, weight)
        return graph

    def __len__(self) -> int:
        return len(self._vertex_of)

    def __repr__(self) -> str:
        return f"IndexedGraph(n={self.number_of_vertices}, m={self.number_of_edges})"
