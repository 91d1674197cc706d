"""Distance oracles for the greedy spanner's inner query.

The greedy algorithm (Algorithm 1) asks, for each candidate edge ``(u, v)``,
whether ``δ_H(u, v) > t · w(u, v)`` in the *current*, growing spanner ``H``.
How this query is answered dominates the algorithm's running time, so the
query strategy is factored out behind the :class:`DistanceOracle` interface.
Two strategies are provided:

* :class:`BoundedDijkstraOracle` — the textbook strategy: a Dijkstra from
  ``u`` pruned at the cutoff ``t · w(u, v)``.  Exact, and the strategy used by
  every careful greedy-spanner implementation (Bose et al. 2010); kept as
  the baseline the cached oracle is measured and tested against.
* :class:`CachedDijkstraOracle` — single-source ball searches plus monotone
  coverage caching.  Distances in the growing spanner only *shrink*, so a
  vertex once settled by a ball of radius ``r`` stays within ``r`` forever;
  the oracle keeps each source's settled vertices (answering all candidate
  pairs ``(u, ·)`` touched by one pruned search at once) and skips Dijkstra
  whenever either endpoint's set already holds the other.
  This is the default strategy of :func:`~repro.core.greedy.greedy_spanner`.

Both strategies return *identical* greedy spanners: each answers "is
``δ_H(u, v) ≤ cutoff``?" exactly as the textbook oracle would (a cached upper
bound ``d ≤ cutoff`` implies the true distance is also within the cutoff, so
the greedy decision is unchanged).  The equivalence is exercised
property-style in ``tests/core/test_oracle_equivalence.py``; the strategy
trade-offs and measurements are documented in ``docs/PERFORMANCE.md``.

The coverage state — weight-sorted live rows, the one ball kernel, the
ball sets and the parked balls — is :class:`CoverageIndex`, which the
band builder of :mod:`repro.core.parallel_greedy` uses as its filter too.
A source that misses again before the next edge is added resumes its parked
ball from the old radius instead of settling the same vertices again; the
resumed ball is the same computation as a fresh one, so only the settle
count changes.

The greedy loop asks on dense ids (the spanner's insertion order): the
cached oracle answers on ids only, the base class maps them back to labels.

All oracles count the number of queries and the number of heap settles so
that the experiments can report *operation counts* alongside wall-clock time
(Python constant factors make wall clock a poor proxy for the asymptotics the
paper talks about).  ``dijkstra_settles`` counts the heap pops actually run;
the cached oracle also reports the vertices its resumed balls restored
(``settles_resumed``), so the two add up to the settles of fresh balls.
"""

from __future__ import annotations

import abc
import math
from array import array
from bisect import insort
from heapq import heappop, heappush
from typing import Iterable, Optional

from repro.errors import UnknownOracleError, VertexNotFoundError
from repro.graph.shortest_paths import dijkstra_with_cutoff_stats
from repro.graph.weighted_graph import Vertex, WeightedGraph


class DistanceOracle(abc.ABC):
    """Answers "is δ_H(u, v) ≤ cutoff?" queries against a growing spanner ``H``.

    Vertex ``labels[i]`` (insertion order) has id ``i``, ``id_of`` maps
    back.  The id methods here call the label methods on the labels.
    """

    def __init__(self, spanner: WeightedGraph) -> None:
        self.spanner = spanner
        self.query_count = 0
        self.settled_count = 0
        self.labels: list[Vertex] = list(spanner.vertices())
        self.id_of: dict[Vertex, int] = {vertex: i for i, vertex in enumerate(self.labels)}

    @abc.abstractmethod
    def distance_within(self, u: Vertex, v: Vertex, cutoff: float) -> float:
        """Return ``δ_H(u, v)`` if it is at most ``cutoff``, else ``math.inf``.

        Stateful strategies may instead return a certified *upper bound* on
        ``δ_H(u, v)`` that is at most ``cutoff`` — either answer yields the
        same greedy decision.
        """

    def distance_within_ids(self, uid: int, vid: int, cutoff: float) -> float:
        """:meth:`distance_within` of the vertices with ids ``uid`` and ``vid``."""
        return self.distance_within(self.labels[uid], self.labels[vid], cutoff)

    def notify_edge_added(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Hook called by the greedy loop after an edge is added to ``H``.

        The base implementation does nothing; stateful oracles may override.
        """

    def notify_edge_added_ids(self, uid: int, vid: int, weight: float) -> None:
        """:meth:`notify_edge_added` of the vertices with ids ``uid`` and ``vid``."""
        self.notify_edge_added(self.labels[uid], self.labels[vid], weight)

    def extra_metadata(self) -> dict[str, float]:
        """Strategy-specific counters merged into the ``Spanner`` metadata.

        The base implementation reports nothing; stateful oracles add their
        own counters (e.g. the caching oracle's hit/miss counts).
        """
        return {}

    def reset_counters(self) -> None:
        """Zero the query/settle counters."""
        self.query_count = 0
        self.settled_count = 0


class BoundedDijkstraOracle(DistanceOracle):
    """Cutoff-pruned Dijkstra: never expands vertices beyond the cutoff distance."""

    def distance_within(self, u: Vertex, v: Vertex, cutoff: float) -> float:
        self.query_count += 1
        if u not in self.spanner or v not in self.spanner:
            raise VertexNotFoundError(v if u in self.spanner else u)
        if u == v:
            return 0.0
        distance, settles = dijkstra_with_cutoff_stats(self.spanner, u, v, cutoff)
        self.settled_count += settles
        return distance


#: Labels all parked balls of one :class:`CoverageIndex` hold together, in an
#: LRU: 8 bytes a label plus 8 for its settled id, so at most 16 MB.  It must
#: hold about one ball per returning source: a ``1 << 14`` budget cut the
#: resumes of a metric n = 250 build from 710 to 67, and ``1 << 16`` those of
#: a metric n = 1000 build (~990,000 labels parked at the peak) from 4,166 to 5.
PARKED_LABELS = 1 << 20


class CoverageIndex:
    """The coverage engine shared by both greedy builders.

    Answers "is the pair ``(u, x)`` already known to be within some past
    ball?" for a growing spanner.  It owns four things:

    * the live adjacency as weight-sorted ``(weight, neighbour)`` rows, kept
      sorted on insertion (:func:`bisect.insort`), so the ball kernel can
      *break* out of a row at the first edge that overshoots the radius —
      every later edge overshoots too;
    * a generation-stamped scratch (``dist`` / ``stamp``), so starting a
      ball is one counter increment instead of an O(n) clear;
    * :attr:`covered`, the *ball sets*: per source, a ``set`` of every id its
      balls settled, filled by one C-level ``set.update`` a ball;
    * the *parked* balls: per source, the settled ids of its last ball, their
      labels and its radius, so the source's next ball at a radius at least
      as large resumes instead of settling them again.

    Parking follows two rules.  Any :meth:`add_edge` drops every parked ball
    (its labels were computed without the edge).  And a ball is parked only
    if its source already ran a ball since the last added edge: parking
    pays only for a source that comes back before the next edge, which
    dense metric builds do all the time and bucketed graph builds (an edge
    every ~2 balls) almost never.  The parked labels are copied out of
    ``dist`` when the next ball starts, so a ball followed by an added edge
    is never copied.  :data:`PARKED_LABELS` bounds them all.

    Spanners only grow, so every member of a ball set stays within the
    largest radius harvested.  Callers decide what radius that certifies:
    the cached oracle compares against the largest radius it has harvested,
    the band builder relies on its non-decreasing bands.
    """

    __slots__ = (
        "rows", "covered", "dist", "stamp", "gen", "resumed",
        "_parked", "_parked_labels", "_seen", "_last",
    )

    def __init__(self, n: int = 0) -> None:
        self.rows: list[list[tuple[float, int]]] = [[] for _ in range(n)]
        self.covered: dict[int, set[int]] = {}
        self.dist: list[float] = [0.0] * n
        self.stamp: list[int] = [0] * n
        self.gen = 0
        #: How many ids at the front of the last ball's settled list were
        #: restored from its parked state rather than settled (0 if fresh).
        self.resumed = 0
        # source -> (settled ids, their labels, radius), least recent first.
        self._parked: dict[int, tuple[list[int], array, float]] = {}
        self._parked_labels = 0
        # Sources that ran a ball since the last added edge.
        self._seen: set[int] = set()
        # The last ball, if it is to be parked: (source, settled, labels
        # already copied or None, radius).  Its labels are in ``dist`` until
        # the next ball starts.
        self._last: Optional[tuple[int, list[int], Optional[array], float]] = None

    def add_vertex(self) -> int:
        """Append an isolated vertex and return its id."""
        self.rows.append([])
        self.dist.append(0.0)
        self.stamp.append(0)
        return len(self.rows) - 1

    def add_edge(self, uid: int, vid: int, weight: float) -> None:
        """Insert the undirected edge into both rows, keeping them sorted.

        The caller guarantees the edge is absent (greedy adds each edge at
        most once).  Every parked ball is dropped.
        """
        insort(self.rows[uid], (weight, vid))
        insort(self.rows[vid], (weight, uid))
        self._last = None
        self._seen.clear()
        if self._parked:
            self._parked.clear()
            self._parked_labels = 0

    def ball(self, source: int, radius: float) -> list[int]:
        """Settle every vertex within ``radius`` of ``source``; harvest them.

        Returns the settled ids in settle order; their distances are in
        :attr:`dist` under stamp :attr:`gen` (``stamp[x] == gen`` is the
        membership test).  The settled set, its ``(dist, id)`` settle order
        and the IEEE distance sums are those of the seed heap ball
        (``indexed_ball`` in ``tests/oracles/graph.py``).  Unlike that loop,
        non-improving pushes are pruned through the stamped scratch: a
        pruned entry is never the minimum entry of its vertex, so the order
        of first pops is untouched while the heap stays small.  Under the
        strict ``<`` prune every stamped vertex is eventually settled, and a
        settled vertex is never re-relaxed.

        If ``source`` has a parked ball of radius ``r ≤ radius``, the ball
        *resumes* it: the parked labels are restored under the fresh stamp,
        every row entry the parked ball cut (``label + w > r``) is relaxed up
        to ``radius``, and the same heap loop continues.  The graph is
        unchanged since parking, so this is the state an uninterrupted
        search holds after popping its last vertex within ``r``: the labels
        are final and every entry within ``r`` was relaxed (a vertex at
        exactly ``r`` was settled, and the cut test is strict).  The settled
        set, order and labels are therefore those of a fresh ball.  Only the
        newly settled ids are harvested; :attr:`resumed` says how many ids at
        the front of the returned list were restored.  A parked ball of a
        larger radius is dropped and the ball runs fresh.

        The ball runs to its full radius even once the caller's target is
        settled: every settled id goes into the ball set of ``source`` in
        :attr:`covered` (one ``set.update``), where it answers later queries
        for free.
        """
        rows = self.rows
        dist = self.dist
        stamp = self.stamp
        if self._last is not None:
            self._park()
        self.gen = gen = self.gen + 1
        pop = heappop
        push = heappush
        parked = self._parked.pop(source, None) if self._parked else None
        if parked is not None:
            settled, labels, parked_radius = parked
            self._parked_labels -= len(labels)
        if parked is not None and parked_radius <= radius:
            # Restore every label first, so the relaxations below see the
            # parked ball's vertices as settled.
            for vertex, d in zip(settled, labels):
                dist[vertex] = d
                stamp[vertex] = gen
            heap: list[tuple[float, int]] = []
            for vertex, d in zip(settled, labels):
                row = rows[vertex]
                if not row or d + row[-1][0] <= parked_radius:
                    continue  # the whole row was relaxed before parking
                for weight, neighbour in row:
                    new_dist = d + weight
                    if new_dist <= parked_radius:
                        continue  # relaxed before parking
                    if new_dist > radius:
                        break
                    if stamp[neighbour] != gen or new_dist < dist[neighbour]:
                        dist[neighbour] = new_dist
                        stamp[neighbour] = gen
                        push(heap, (new_dist, neighbour))
            resumed = len(settled)
        else:
            settled = []
            labels = None
            resumed = 0
            heap = [(0.0, source)]
            dist[source] = 0.0
            stamp[source] = gen
        append = settled.append
        while heap:
            d, vertex = pop(heap)
            if d > dist[vertex]:
                continue
            append(vertex)
            for weight, neighbour in rows[vertex]:
                new_dist = d + weight
                if new_dist > radius:
                    break  # rows are weight-sorted: every later neighbour overshoots
                if stamp[neighbour] != gen or new_dist < dist[neighbour]:
                    dist[neighbour] = new_dist
                    stamp[neighbour] = gen
                    push(heap, (new_dist, neighbour))
        self.resumed = resumed
        seen = self._seen
        if source in seen:
            self._last = (source, settled, labels, radius)
        else:
            seen.add(source)
        self.harvest(source, settled[resumed:] if resumed else settled)
        return settled

    def _park(self) -> None:
        """Park the last ball, copying its new labels out of :attr:`dist`."""
        source, settled, labels, radius = self._last
        self._last = None
        dist = self.dist
        if labels is None:
            labels = array("d", [dist[x] for x in settled])
        else:
            labels.extend([dist[x] for x in settled[len(labels):]])
        parked = self._parked
        parked[source] = (settled, labels, radius)
        total = self._parked_labels + len(labels)
        while total > PARKED_LABELS:
            total -= len(parked.pop(next(iter(parked)))[1])
        self._parked_labels = total

    def harvest(self, source: int, ids: Iterable[int]) -> None:
        """Add ``ids`` to the ball set of ``source``."""
        self.covered.setdefault(source, set()).update(ids)

    def covers(self, uid: int, vid: int) -> bool:
        """Return True if a ball from either endpoint settled the other."""
        return vid in self.covered.get(uid, ()) or uid in self.covered.get(vid, ())


class CachedDijkstraOracle(DistanceOracle):
    """Single-source ball searches plus monotone coverage caching.

    Correctness rests on monotonicity: edges are only ever *added* to the
    growing spanner ``H``, so ``δ_H`` is non-increasing over time and any
    certified upper bound ``δ_H(u, v) ≤ d`` remains valid forever.  On a
    miss the oracle settles the *entire* cutoff ball around the source — it
    deliberately does not stop at the target — and records every settled
    vertex ``x`` as covered: ``δ_H(u, x) ≤`` that ball's radius.  A later
    query of a covered pair is a hit whenever its cutoff is at least the
    largest radius harvested so far, since the pair's own ball had at most
    that radius.  The greedy loop examines edges in non-decreasing weight
    order, so its cutoffs never drop below a past radius and every covered
    pair is a hit; for any other cutoff order the oracle stays exact — a
    query below the largest radius falls through to a fresh ball.

    A settled vertex costs one id in its source's ball set
    (``coverage_entries`` counts them), not a stored distance.  A hit probes
    both endpoints' sets and returns the largest harvested radius: a
    certified upper bound that is at most the cutoff, which decides the
    greedy verdict exactly as the true distance would.  Reusing one
    single-source search's distances as standing upper bounds for later
    pairs is the FG-greedy idea of Farshi and Gudmundsson (ESA 2005; JEA
    2009).

    Spanner edges present at construction (a repair warm start) and edges
    reported through :meth:`notify_edge_added` are kept as exact bounds
    ``δ_H(u, v) ≤ w`` in a small dictionary; a query consumes the bound it
    reads.  ``cache_hits`` / ``cache_misses`` / ``cached_bounds`` /
    ``peak_cached_bounds`` are exposed through :meth:`extra_metadata`.

    A miss from a source whose last ball is still parked (no edge added
    since, see :class:`CoverageIndex`) resumes that ball.  The verdicts and
    the hit/miss counts are those of fresh balls; ``dijkstra_settles``
    counts only the vertices settled anew, and ``balls_resumed`` /
    ``settles_resumed`` count the resumed balls and the vertices they
    restored.

    The searches run on the :class:`CoverageIndex` rows by id, kept in sync
    through :meth:`notify_edge_added_ids` (the greedy loop's mutation hook);
    mutations that bypass the hook are not observed.  The label methods
    look the ids up (a new label gets the next id) and call the id methods.
    """

    def __init__(self, spanner: WeightedGraph) -> None:
        super().__init__(spanner)
        self._cover = CoverageIndex(len(self.labels))
        self._radius = 0.0
        self._bounds: dict[int, float] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.peak_cached_bounds = 0
        self.balls_resumed = 0
        self.settles_resumed = 0
        # Edges already in the spanner are certified bounds from the start.
        for u, v, weight in spanner.edges():
            self.notify_edge_added_ids(self.id_of[u], self.id_of[v], weight)

    def _intern(self, vertex: Vertex) -> int:
        vid = self.id_of.get(vertex)
        if vid is None:
            vid = self.id_of[vertex] = self._cover.add_vertex()
            self.labels.append(vertex)
        return vid

    def distance_within(self, u: Vertex, v: Vertex, cutoff: float) -> float:
        try:
            uid, vid = self.id_of[u], self.id_of[v]
        except KeyError:
            raise VertexNotFoundError(v if u in self.id_of else u) from None
        return self.distance_within_ids(uid, vid, cutoff)

    def distance_within_ids(self, uid: int, vid: int, cutoff: float) -> float:
        self.query_count += 1
        if uid == vid:
            return 0.0
        cover = self._cover
        radius = self._radius
        covered = cover.covered
        if cutoff >= radius and (vid in covered.get(uid, ()) or uid in covered.get(vid, ())):
            self.cache_hits += 1
            return radius
        key = ((uid << 32) | vid) if uid <= vid else ((vid << 32) | uid)
        cached = self._bounds.pop(key, None)
        if cached is not None and cached <= cutoff:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        settled = cover.ball(uid, cutoff)
        resumed = cover.resumed
        if resumed:
            self.balls_resumed += 1
            self.settles_resumed += resumed
        self.settled_count += len(settled) - resumed
        if cutoff > radius:
            self._radius = cutoff
        bounds = len(self._bounds)
        if bounds > self.peak_cached_bounds:
            self.peak_cached_bounds = bounds
        return cover.dist[vid] if cover.stamp[vid] == cover.gen else math.inf

    def notify_edge_added(self, u: Vertex, v: Vertex, weight: float) -> None:
        self.notify_edge_added_ids(self._intern(u), self._intern(v), weight)

    def notify_edge_added_ids(self, uid: int, vid: int, weight: float) -> None:
        self._cover.add_edge(uid, vid, weight)
        key = ((uid << 32) | vid) if uid <= vid else ((vid << 32) | uid)
        existing = self._bounds.get(key)
        if existing is None or weight < existing:
            self._bounds[key] = weight

    def extra_metadata(self) -> dict[str, float]:
        return {
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cached_bounds": float(len(self._bounds)),
            "peak_cached_bounds": float(max(self.peak_cached_bounds, len(self._bounds))),
            "balls_resumed": float(self.balls_resumed),
            "settles_resumed": float(self.settles_resumed),
            "coverage_entries": float(sum(map(len, self._cover.covered.values()))),
        }

    def reset_counters(self) -> None:
        super().reset_counters()
        self.cache_hits = 0
        self.cache_misses = 0
        self.balls_resumed = 0
        self.settles_resumed = 0


ORACLE_FACTORIES = {
    "bounded": BoundedDijkstraOracle,
    "cached": CachedDijkstraOracle,
}


def make_oracle(name: str, spanner: WeightedGraph) -> DistanceOracle:
    """Instantiate the oracle strategy called ``name`` over ``spanner``.

    Valid names are ``"cached"`` (default strategy of the greedy algorithm)
    and ``"bounded"`` (the textbook baseline); see the module docstring and
    ``docs/PERFORMANCE.md`` for the trade-offs.  Any other name raises
    :class:`~repro.errors.UnknownOracleError`.
    """
    try:
        factory = ORACLE_FACTORIES[name]
    except KeyError:
        raise UnknownOracleError(name, sorted(ORACLE_FACTORIES)) from None
    return factory(spanner)
