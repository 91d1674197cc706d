"""Batched multi-source distance queries: one resumable search per source.

Answering ``q`` point-to-point distance queries with the seed per-query
path costs ``q`` independent lazy-``heapq`` Dijkstras, each searching from
its source even when many queries share one.  The :class:`QueryEngine`
groups a batch by source instead: each distinct source runs a single
lazy-``heapq`` Dijkstra that stops as soon as the *last* of its targets
settles.  A batch with ``q`` queries over ``s`` distinct sources costs
``s`` searches, not ``q`` — the regime the overlay experiments live in
(many demands, few distinct sources).

Searches also outlive their batch.  When a source's targets have settled,
its state (distances, settled marks, heap) is *parked*; the next batch that
asks from the same source answers already-settled targets straight from it
and resumes popping only for the rest.  Skewed traffic (the same few hot
sources in every batch) thus stops re-searching the same ball.  The parked
searches hold :data:`PARKED_SLOTS` distance slots in total and are kept by
request count: every batch counts one request per distinct source, a full
engine drops the parked search with the fewest requests (the least recently
used among ties), and the counts are halved whenever they sum to
:data:`_HALVE_AT` times the capacity, so one-off sources cannot push out
the hot ones while a shifted hot set still takes over.  Any mutation of the
graph (its :attr:`~repro.graph.indexed_graph.IndexedGraph.version`) drops
every parked search.

The search itself is the seed's relaxation loop — ``(dist, id)`` tuples on
C :mod:`heapq`, strict ``<`` improvement, stale pops skipped — over a flat
distance list.  On full searches like these, C :mod:`heapq` with lazy
deletion runs about 2.5× faster per batch than a pure-Python decrease-key
d-ary heap (measurements in ``docs/PERFORMANCE.md``).

The batched answers are **exactly** the reference answers, not merely
close: for a fixed adjacency, every Dijkstra variant settles a vertex at
the minimum over paths of the left-to-right float sum of edge weights, so
the engine and the per-query reference produce bit-identical distances.
A resumed search pops the same ``(dist, id)`` sequence as one uninterrupted
search, so settle counts match too: a single batch settles exactly what
the reference settles to each source's last target, and a later batch
settles only the pops it adds.
:func:`reference_queries_ids` keeps the seed per-query path alive as that
reference twin — the query bench cross-checks the two element for element
(the ``queries_match`` gate) and reports the measured speedup.

Exposure: :meth:`repro.distributed.routing.RoutingScheme.run_queries` serves
overlay distance batches next to the routing tables.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from operator import index
from typing import Sequence, Union

from repro.errors import VertexNotFoundError
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.weighted_graph import Vertex, WeightedGraph

#: Distance slots all parked searches of one engine hold together: the engine
#: keeps ``max(1, PARKED_SLOTS // n)`` searches (104 at n = 10⁴, and every
#: source below n = 1024).  The budget, not a search count, bounds the memory
#: at any ``n``; it must still hold the ~20 distinct hot sources a
#: Zipf-skewed batch draws plus the mid-rank ones that come back (16
#: searches gave no gain on the repository benchmark, 256 cost 50 % more
#: peak memory).
PARKED_SLOTS = 1 << 20

#: The request counts are halved, and zeros dropped, whenever they sum to
#: this many times the capacity: a formerly hot source loses its lead within
#: a bounded number of requests, and the count table stays bounded.
_HALVE_AT = 40


def _dense_id(vid: object, n: int) -> int:
    """``vid`` as an int in ``range(n)``; anything else is an unknown vertex."""
    try:
        vid = index(vid)
    except TypeError:
        raise VertexNotFoundError(vid) from None
    if not 0 <= vid < n:
        raise VertexNotFoundError(vid)
    return vid


class QueryEngine:
    """Batched point-to-point distance queries over a fixed or growing graph.

    Parameters
    ----------
    graph:
        The graph to answer queries on — an
        :class:`~repro.graph.indexed_graph.IndexedGraph` (used as-is, shared
        adjacency) or any :class:`~repro.graph.weighted_graph.WeightedGraph`
        (translated once at construction).

    The engine parks each source's search between batches and resumes it
    when the source comes back (past :data:`PARKED_SLOTS`, the search with
    the fewest counted requests is dropped).  It observes edges, weights
    and vertices added to a shared ``IndexedGraph`` after construction: the
    adjacency arrays are live, and a change of the graph's ``version``
    drops every parked search, so one engine can serve a growing spanner
    mirror.  All counters are cumulative across batches.
    """

    __slots__ = (
        "_indexed",
        "_parked",
        "_requests",
        "_request_total",
        "_version",
        "query_count",
        "batch_count",
        "source_count",
        "resumed_count",
        "evicted_count",
        "settled_count",
    )

    def __init__(self, graph: Union[IndexedGraph, WeightedGraph]) -> None:
        if isinstance(graph, IndexedGraph):
            self._indexed = graph
        else:
            self._indexed = IndexedGraph.from_weighted_graph(graph)
        #: source -> (dist, settled marks, heap), least recently used first.
        self._parked: dict[int, tuple[list[float], bytearray, list[tuple[float, int]]]] = {}
        #: source -> batches that asked it since the counts were last halved
        #: (parked or not), and the sum of those counts.
        self._requests: dict[int, int] = {}
        self._request_total = 0
        #: The graph version the parked searches were computed on.
        self._version = self._indexed.version
        #: Queries answered (one per (source, target) pair).
        self.query_count = 0
        #: Batches served (calls to :meth:`run_queries_ids`).
        self.batch_count = 0
        #: Distinct sources per batch, summed: each one fresh or resumed
        #: search, which may pop nothing if its targets were settled.
        self.source_count = 0
        #: Searches resumed from a parked state (part of ``source_count``).
        self.resumed_count = 0
        #: Parked searches dropped to stay within the capacity, counting a
        #: just-finished search that was not kept.
        self.evicted_count = 0
        #: Heap pops actually run (non-stale) across all searches.
        self.settled_count = 0

    @property
    def indexed(self) -> IndexedGraph:
        """The engine's indexed substrate (shared when one was passed in)."""
        return self._indexed

    def counters(self) -> dict[str, float]:
        """Cumulative operation counts (the query bench's gated counters)."""
        return {
            "engine_queries": float(self.query_count),
            "engine_batches": float(self.batch_count),
            "engine_sources": float(self.source_count),
            "engine_resumed": float(self.resumed_count),
            "engine_evicted": float(self.evicted_count),
            "engine_settles": float(self.settled_count),
        }

    def _vertex_id(self, vertex: Vertex) -> int:
        try:
            return self._indexed.id_of(vertex)
        except (KeyError, TypeError):
            raise VertexNotFoundError(vertex) from None

    def distance(self, source: Vertex, target: Vertex) -> float:
        """Answer one query (a batch of one; prefer :meth:`run_queries`)."""
        return self.run_queries([source], [target])[0]

    def run_queries(
        self, sources: Sequence[Vertex], targets: Sequence[Vertex]
    ) -> list[float]:
        """Answer the paired queries ``(sources[i], targets[i])`` by vertex.

        Returns the distance list aligned with the input order
        (``math.inf`` for unreachable pairs).
        """
        return self.run_queries_ids(
            [self._vertex_id(vertex) for vertex in sources],
            [self._vertex_id(vertex) for vertex in targets],
        )

    def run_queries_ids(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[float]:
        """Answer the paired queries ``(sources[i], targets[i])`` by dense id.

        Queries are grouped by source; each distinct source resumes its
        parked lazy-``heapq`` Dijkstra (or starts one) and pops until its
        last pending target settles.  Ids may be any integer type
        (``operator.index``); anything else raises
        :class:`~repro.errors.VertexNotFoundError` before any search runs.
        """
        if len(sources) != len(targets):
            raise ValueError(
                f"paired query lists differ in length: "
                f"{len(sources)} sources vs {len(targets)} targets"
            )
        indexed = self._indexed
        n = indexed.number_of_vertices
        results = [math.inf] * len(sources)
        # source -> {target -> [result slots]} in first-seen order; one
        # search per outer key, one settle-check per inner key.
        pending: dict[int, dict[int, list[int]]] = {}
        for slot, (source, target) in enumerate(zip(sources, targets)):
            source = _dense_id(source, n)
            target = _dense_id(target, n)
            if source == target:
                results[slot] = 0.0
                continue
            by_target = pending.get(source)
            if by_target is None:
                by_target = pending[source] = {}
            slots = by_target.get(target)
            if slots is None:
                by_target[target] = [slot]
            else:
                slots.append(slot)

        parked = self._parked
        if self._version != indexed.version:
            parked.clear()
            self._version = indexed.version
        capacity = max(1, PARKED_SLOTS // max(1, n))
        requests = self._requests
        total = self._request_total
        neighbour_ids, neighbour_weights = indexed.adjacency_arrays()
        inf = math.inf
        settled = resumed = evicted = 0
        for source, target_slots in pending.items():
            requests[source] = requests.get(source, 0) + 1
            total += 1
            if total >= _HALVE_AT * capacity:
                requests = self._requests = {
                    vertex: count >> 1 for vertex, count in requests.items() if count > 1
                }
                total = sum(requests.values())
            # Popped, not read: an interrupted search is dropped, never
            # parked half-relaxed.  A fresh search is an empty parked one.
            search = parked.pop(source, None)
            if search is None:
                dist = [inf] * n
                dist[source] = 0.0
                done = bytearray(n)
                heap = [(0.0, source)]
            else:
                dist, done, heap = search
                resumed += 1
            remaining = sum(not done[target] for target in target_slots)
            while remaining and heap:
                d, vertex = heappop(heap)
                if done[vertex]:
                    continue
                done[vertex] = 1
                settled += 1
                # Relax before checking the target, so the parked state is
                # a whole Dijkstra step the next batch can resume.
                for neighbour, weight in zip(
                    neighbour_ids[vertex], neighbour_weights[vertex]
                ):
                    new_dist = d + weight
                    if new_dist < dist[neighbour]:
                        dist[neighbour] = new_dist
                        heappush(heap, (new_dist, neighbour))
                if vertex in target_slots:
                    remaining -= 1
            for target, slots in target_slots.items():
                if done[target]:
                    distance = dist[target]
                    for slot in slots:
                        results[slot] = distance
            parked[source] = (dist, done, heap)
            if len(parked) > capacity:
                # The fewest requests goes; ``min`` keeps the first of a
                # tie, the least recently used, so the search just parked
                # goes only if its count is strictly the lowest.
                del parked[min(parked, key=lambda vertex: requests.get(vertex, 0))]
                evicted += 1
        self._request_total = total
        self.settled_count += settled
        self.resumed_count += resumed
        self.evicted_count += evicted
        self.query_count += len(sources)
        self.batch_count += 1
        self.source_count += len(pending)
        return results


def reference_queries_ids(
    indexed: IndexedGraph, sources: Sequence[int], targets: Sequence[int]
) -> tuple[list[float], int]:
    """The seed per-query path: one lazy-``heapq`` Dijkstra per query.

    Every query searches from its source even when the previous query used
    the same one — the repeated work :class:`QueryEngine`'s grouping
    removes.  Kept as
    the reference twin: the query bench asserts element-for-element float
    equality against the engine (``queries_match``) and reports the
    throughput ratio as the gated ``query_speedup``.

    Returns ``(distances, settles)`` with ``settles`` the total non-stale
    pops across all queries.
    """
    if len(sources) != len(targets):
        raise ValueError(
            f"paired query lists differ in length: "
            f"{len(sources)} sources vs {len(targets)} targets"
        )
    neighbour_ids, neighbour_weights = indexed.adjacency_arrays()
    inf = math.inf
    results: list[float] = []
    settles = 0
    for source, target in zip(sources, targets):
        if source == target:
            results.append(0.0)
            continue
        dist = {source: 0.0}
        get = dist.get
        heap: list[tuple[float, int]] = [(0.0, source)]
        found = inf
        while heap:
            d, vertex = heappop(heap)
            if d > get(vertex, inf):
                continue
            settles += 1
            if vertex == target:
                found = d
                break
            for neighbour, weight in zip(
                neighbour_ids[vertex], neighbour_weights[vertex]
            ):
                new_dist = d + weight
                if new_dist < get(neighbour, inf):
                    dist[neighbour] = new_dist
                    heappush(heap, (new_dist, neighbour))
        results.append(found)
    return results, settles
