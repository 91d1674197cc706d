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
  upper-bound caching.  Distances in the growing spanner only *shrink*, so
  any certified bound ``δ_H(u, v) ≤ d`` stays valid forever; the oracle
  harvests the settled ball of every search as certified bounds (answering
  all candidate pairs ``(u, ·)`` touched by one pruned search at once) and
  skips Dijkstra entirely whenever a cached bound already decides a query.
  This is the default strategy of :func:`~repro.core.greedy.greedy_spanner`.

Both strategies return *identical* greedy spanners: each answers "is
``δ_H(u, v) ≤ cutoff``?" exactly as the textbook oracle would (a cached upper
bound ``d ≤ cutoff`` implies the true distance is also within the cutoff, so
the greedy decision is unchanged).  The equivalence is exercised
property-style in ``tests/core/test_oracle_equivalence.py``; the strategy
trade-offs and measurements are documented in ``docs/PERFORMANCE.md``.

All oracles count the number of queries and the number of heap settles so
that the experiments can report *operation counts* alongside wall-clock time
(Python constant factors make wall clock a poor proxy for the asymptotics the
paper talks about).
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from repro.core.query_engine import QueryEngine
from repro.errors import UnknownOracleError, VertexNotFoundError
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import dijkstra_with_cutoff_stats, indexed_ball
from repro.graph.weighted_graph import Vertex, WeightedGraph


class DistanceOracle(abc.ABC):
    """Answers "is δ_H(u, v) ≤ cutoff?" queries against a growing spanner ``H``."""

    def __init__(self, spanner: WeightedGraph) -> None:
        self.spanner = spanner
        self.query_count = 0
        self.settled_count = 0

    @abc.abstractmethod
    def distance_within(self, u: Vertex, v: Vertex, cutoff: float) -> float:
        """Return ``δ_H(u, v)`` if it is at most ``cutoff``, else ``math.inf``.

        Stateful strategies may instead return a certified *upper bound* on
        ``δ_H(u, v)`` that is at most ``cutoff`` — either answer yields the
        same greedy decision.
        """

    def notify_edge_added(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Hook called by the greedy loop after an edge is added to ``H``.

        The base implementation does nothing; stateful oracles may override.
        """

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
        if u == v:
            return 0.0
        distance, settles = dijkstra_with_cutoff_stats(self.spanner, u, v, cutoff)
        self.settled_count += settles
        return distance


class CachedDijkstraOracle(DistanceOracle):
    """Single-source ball searches plus monotone upper-bound caching.

    Correctness rests on monotonicity: edges are only ever *added* to the
    growing spanner ``H``, so ``δ_H`` is non-increasing over time and any
    certified upper bound ``δ_H(u, v) ≤ d`` remains valid forever.  The
    oracle therefore

    * answers a query from the cache whenever a stored bound is at most the
      cutoff (the true distance is then also at most the cutoff, so the
      greedy decision matches the exact oracle's), and
    * on a miss, settles the *entire* cutoff ball around the source — it
      deliberately does not stop at the target — and harvests every settled
      vertex ``x`` as a certified bound ``δ_H(u, x) ≤ d(x)``.  One pruned
      search thereby batch-answers all candidate pairs ``(u, ·)`` within the
      current radius.  The batching pays off *because* the greedy loop
      examines edges in non-decreasing weight order: a pending pair
      ``(u, x)`` has ``w(u, x) ≥ w``, so a harvested bound
      ``d ≤ t·w ≤ t·w(u, x)`` is guaranteed to still be a cache hit when
      that pair comes up.

    Spanner edges reported through :meth:`notify_edge_added` are cached too
    (``δ_H(u, v) ≤ w``), which is what lets Lemma-3 re-runs and repeated
    queries skip Dijkstra entirely.  ``cache_hits`` / ``cache_misses`` are
    exposed through :meth:`extra_metadata` and land in ``Spanner`` metadata.

    **Monotone-cutoff mode.**  With :attr:`monotone_cutoffs` set (the greedy
    loop turns it on), the oracle exploits the loop's non-decreasing cutoff
    sequence: any vertex ``x`` ever settled by a ball from ``u`` had
    ``δ_H(u, x) ≤ radius ≤`` every *future* cutoff, so membership alone —
    one bit — certifies all later queries of the pair, and the exact
    distance value need not be stored.  Harvests then go into per-source
    bitsets (``n²/8`` bytes worst case, ~100 bytes per pair less than the
    value dictionary), and the value dictionary shrinks to ``O(|spanner|)``:
    construction-time seeds from pre-existing spanner edges (none in a
    greedy run, which starts edgeless), each evicted by the single query
    that consumes it, plus one entry per :meth:`notify_edge_added` edge.
    The loop queries a pair *before* adding its edge, so the notify entries
    are never consumed in-run — they are kept for the ``cached_bounds``
    metadata and for parity with the seeding a re-run would see.  Verdicts
    and operation counts are identical to the value-cache mode — a pair is
    a hit in one exactly when it is a hit in the other — but peak memory on
    the streamed metric workloads drops from Θ(n²) dictionary entries to
    the ``O(n + |spanner|)`` working set (measured in
    ``docs/PERFORMANCE.md``).  The default is off, preserving exact-value
    repeat-query caching for ad-hoc oracle use with arbitrary cutoffs.

    Cache keys are the two vertex ids packed into one int (``lo << 32 | hi``)
    — cheaper to hash than a tuple in this hottest of paths.  The ids come
    from an indexed mirror of ``H``, interned at construction and kept in
    sync through :meth:`notify_edge_added` (the greedy loop's mutation
    hook), so the searches run on flat integer adjacency arrays; direct
    mutations of the spanner that bypass the hook are not observed.
    """

    #: When True, callers promise non-decreasing cutoffs per run (see above).
    monotone_cutoffs: bool

    def __init__(self, spanner: WeightedGraph) -> None:
        super().__init__(spanner)
        self._index = IndexedGraph.from_weighted_graph(spanner)
        self._engine: QueryEngine | None = None
        self._bounds: dict[int, float] = {}
        self._ball_bits: dict[int, "np.ndarray"] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.peak_cached_bounds = 0
        self.monotone_cutoffs = False
        # Edges already in the spanner are certified bounds from the start.
        for uid, vid, weight in self._index.edges():
            self._bounds[(uid << 32) | vid] = weight

    def _vertex_id(self, vertex: Vertex) -> int:
        try:
            return self._index.id_of(vertex)
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    @property
    def query_engine(self) -> QueryEngine:
        """The oracle's batched query engine, built lazily over the mirror.

        The engine shares the mirror's live adjacency arrays, so edges
        reported through :meth:`notify_edge_added` are observed without any
        rebuild.  It holds no search state between batches, only its
        cumulative counters.
        """
        if self._engine is None:
            self._engine = QueryEngine(self._index)
        return self._engine

    def run_queries(
        self, sources: Sequence[Vertex], targets: Sequence[Vertex]
    ) -> list[float]:
        """Answer the paired distance queries ``(sources[i], targets[i])``.

        Batched exact point-to-point distances in the *current* spanner
        ``H`` — one early-stopped search per distinct source on the shared
        engine instead of one Dijkstra per query.  Query and settle counts
        land in the oracle's counters like any other query.
        """
        engine = self.query_engine
        settled_before = engine.settled_count
        results = engine.run_queries(sources, targets)
        self.query_count += len(results)
        self.settled_count += engine.settled_count - settled_before
        return results

    def _ball_bit(self, source: int, target: int) -> bool:
        bits = self._ball_bits.get(source)
        if bits is None:
            return False
        return bool((bits[target >> 3] >> (target & 7)) & 1)

    def distance_within(self, u: Vertex, v: Vertex, cutoff: float) -> float:
        self.query_count += 1
        if u == v:
            return 0.0
        uid = self._vertex_id(u)
        vid = self._vertex_id(v)
        key = ((uid << 32) | vid) if uid <= vid else ((vid << 32) | uid)
        if self.monotone_cutoffs:
            # Membership in any past ball certifies δ_H ≤ that ball's radius,
            # which is ≤ the current cutoff by monotonicity; the greedy loop
            # only compares the answer against the cutoff, so the cutoff
            # itself is a sufficient certified bound to return.
            if self._ball_bit(uid, vid) or self._ball_bit(vid, uid):
                self.cache_hits += 1
                return cutoff
            cached = self._bounds.pop(key, None)
        else:
            cached = self._bounds.get(key)
        if cached is not None and cached <= cutoff:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        settled = indexed_ball(self._index, uid, cutoff)
        self.settled_count += len(settled)
        self._harvest(uid, settled)
        distance = settled.get(vid)
        return distance if distance is not None else math.inf

    def _harvest(self, endpoint: int, settled: dict[int, float]) -> None:
        """Record every settled vertex as a certified upper bound from ``endpoint``.

        In monotone-cutoff mode the bounds are membership bits in the
        source's bitset; otherwise exact distance values in the dictionary.
        """
        if self.monotone_cutoffs:
            bits = self._ball_bits.get(endpoint)
            if bits is None:
                size = (self._index.number_of_vertices + 7) >> 3
                bits = np.zeros(size, dtype=np.uint8)
                self._ball_bits[endpoint] = bits
            ids = np.fromiter(settled.keys(), dtype=np.int64, count=len(settled))
            np.bitwise_or.at(bits, ids >> 3, np.left_shift(1, ids & 7).astype(np.uint8))
            self.peak_cached_bounds = max(self.peak_cached_bounds, len(self._bounds))
            return
        bounds = self._bounds
        for vertex, dist in settled.items():
            if vertex == endpoint:
                continue
            key = ((endpoint << 32) | vertex) if endpoint <= vertex else ((vertex << 32) | endpoint)
            existing = bounds.get(key)
            if existing is None or dist < existing:
                bounds[key] = dist
        self.peak_cached_bounds = max(self.peak_cached_bounds, len(bounds))

    def notify_edge_added(self, u: Vertex, v: Vertex, weight: float) -> None:
        # The greedy loop adds each edge at most once, so the mirror can take
        # the raw-append path and skip add_edge's O(degree) duplicate scan.
        self._index.append_edge_unchecked(u, v, weight)
        uid = self._index.id_of(u)
        vid = self._index.id_of(v)
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
        }

    def reset_counters(self) -> None:
        super().reset_counters()
        self.cache_hits = 0
        self.cache_misses = 0


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
