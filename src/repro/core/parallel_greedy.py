"""Deterministic band greedy-spanner construction (band filter + replay).

The serial greedy algorithm is inherently sequential: the verdict on edge
``e_i`` depends on the spanner ``H`` accumulated from every earlier verdict.
This module batches it *without changing a single verdict* using a
frozen-filter / canonical-replay decomposition:

1. The canonical non-decreasing ``(weight, repr(u), repr(v))`` edge order —
   a materialized ``edges_sorted_by_weight()`` list or the PR-2 streaming
   pipeline — is chunked into contiguous **weight bands**
   (:func:`repro.metric.stream.edge_bands`; a pure function of the stream).
2. Within a band, every edge is checked against the **frozen** spanner
   ``H_frozen`` — the state after all previous bands finished, read from
   its :class:`~repro.graph.csr.CSRAdjacency` snapshot.  Edges are
   grouped under their *busier* endpoint (band-global frequency count, ties
   to the lower id — fewer balls than always keying on the canonical
   source, at identical verdicts since ``δ`` is symmetric) and each group
   is decided by ONE bounded ball of radius ``t · max(w)`` (the PR-5
   verification discipline).
   Rejection is **sound**: the serial greedy's ``H`` at examination time is a
   superset of ``H_frozen``, so ``δ_frozen(u, v) ≤ t·w`` implies
   ``δ_serial(u, v) ≤ t·w`` — the serial algorithm would have rejected too.
   Across bands, every settled ``(source, x)`` pair is harvested into a
   **monotone coverage cache** (the CachedDijkstraOracle argument: spanners
   only grow and the canonical order only raises cutoffs, so a certified
   bound ``δ(u, x) ≤ r`` keeps rejecting forever); covered pairs are
   rejected before any ball is scheduled.
3. Survivors ("candidates") are **replayed sequentially in canonical order**
   against the live spanner.  By induction every replayed verdict equals the
   serial verdict, so the constructed spanner is *byte-identical* to
   :func:`repro.core.greedy.greedy_spanner` — for any band size
   (``builds_match`` in ``BENCH_build.json``; hypothesis-proven in
   ``tests/core/test_parallel_greedy.py``).

Everything runs in one process; the counters are a pure function of the
workload and the band size.  The path earns its place through the coverage
cache, which beats ``greedy-serial`` on low-degree graphs and keeps peak
memory lower (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Optional

import numpy as np

from repro.core.greedy import check_stretch
from repro.core.spanner import Spanner
from repro.graph.csr import CSRAdjacency
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import indexed_bidirectional_cutoff
from repro.graph.weighted_graph import WeightedEdge, WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.metric.stream import edge_bands, sorted_pair_stream

#: Default number of weight bands the canonical order is split into.  More
#: bands means a fresher frozen filter (fewer false candidates to replay)
#: but more per-band snapshots and more filter balls per source; the
#: measured sweet spot on the bench workloads is small (docs/PERFORMANCE.md).
DEFAULT_BANDS = 8

#: A group is ``(source_id, [(canonical_index, target_id, weight), ...])``
#: with items in canonical order, so the last item carries the max weight.
FilterGroup = tuple[int, list[tuple[int, int, float]]]

#: One band's verdicts: candidate canonical indices, ball settle count and
#: the harvest — packed ``(min_id << 32) | max_id`` coverage pairs, already
#: in the cache's key encoding so they merge with one C-level ``set.update``
#: instead of a per-pair python loop.
FilterResult = tuple[list[int], int, list[int]]


def _csr_as_pairs(csr: CSRAdjacency) -> list[list[tuple[float, int]]]:
    """Bulk-convert CSR arrays to per-vertex ``(weight, neighbour)`` pair rows.

    Each adjacency row is re-sorted by ``(weight, neighbour id)`` (one
    vectorized lexsort per snapshot) so the ball kernels can *break* out of
    a vertex's relaxation loop at the first neighbour whose edge already
    overshoots the radius — every later neighbour overshoots too.  On
    degree-96 workloads only a few percent of scanned edges pass the radius
    test, so the break removes the bulk of the inner-loop work.  The pairs
    are pre-zipped into tuples so the kernel's relaxation loop is a single
    list subscript plus tuple unpacking — no per-settle slice allocation,
    no per-edge ``zip`` churn (measured ~30% off the ball kernel;
    docs/PERFORMANCE.md).  Row order is unobservable in the results: ball
    distances are adjacency-order independent, and the heap pops by the
    total ``(dist, vertex)`` key, so the settle order is unchanged.
    """
    indptr = csr.indptr
    rows = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )
    order = np.lexsort((csr.indices, csr.weights, rows))
    flat = list(zip(csr.weights[order].tolist(), csr.indices[order].tolist()))
    bounds = indptr.tolist()
    return [flat[bounds[v]:bounds[v + 1]] for v in range(len(bounds) - 1)]


# Scratch of the filter kernel, keyed by vertex count: a flat
# tentative-distance array plus a generation stamp so starting a ball is one
# counter increment, not an O(n) clear.
_SCALAR_SCRATCH: dict[int, tuple[list[float], list[int], list[int]]] = {}


def _scalar_scratch(n: int) -> tuple[list[float], list[int], list[int]]:
    scratch = _SCALAR_SCRATCH.get(n)
    if scratch is None:
        scratch = _SCALAR_SCRATCH[n] = ([0.0] * n, [0] * n, [0])
    return scratch


def _scalar_ball(
    pairs: list[list[tuple[float, int]]],
    source: int,
    radius: float,
    dist: list[float],
    stamp: list[int],
    gen: int,
) -> list[int]:
    """Bounded Dijkstra ball over pre-zipped pair rows — the filter kernel.

    Same settled set (contents, settle order and therefore settle count,
    with IEEE-identical distance sums) as
    :func:`~repro.graph.shortest_paths.indexed_ball`.  Unlike that loop it
    prunes non-improving pushes through a generation-stamped
    tentative-distance array: a pruned entry is never the minimum entry of
    its vertex, so the pop order of *first* pops — the
    only observable order — is untouched while the heap stays a fraction of
    the size (the dominant cost of dense bands; docs/PERFORMANCE.md).  A
    settled vertex needs no membership test on relaxation: its tentative
    distance is final, so the strict ``<`` prune rejects re-relaxation.

    Returns the settled vertex ids in settle order; the distances live in
    ``dist`` under stamp ``gen``.  No settled dict is built at all: under
    the strict ``<`` prune every stamped vertex is eventually settled (its
    minimum heap entry is within the radius and the ball runs the heap
    dry), so ``stamp[v] == gen`` *is* the membership test and ``dist[v]``
    the final distance.  Staleness of a popped entry is likewise one list
    subscript (``d > dist[vertex]``) instead of a dict probe, and
    neighbours stream through pre-zipped ``(weight, neighbour)`` rows
    rather than per-settle slicing (:func:`_csr_as_pairs`).

    The ball deliberately runs to its full radius even after every group
    target is settled: the surplus is harvested into the coverage cache,
    where it rejects later bands' edges for free (early exit was a measured
    net loss — docs/PERFORMANCE.md).
    """
    settled_ids: list[int] = []
    append = settled_ids.append
    pop = heappop
    push = heappush
    heap: list[tuple[float, int]] = [(0.0, source)]
    dist[source] = 0.0
    stamp[source] = gen
    while heap:
        d, vertex = pop(heap)
        if d > dist[vertex]:
            continue
        append(vertex)
        for weight, neighbour in pairs[vertex]:
            new_dist = d + weight
            if new_dist > radius:
                break  # rows are weight-sorted: every later neighbour overshoots
            if stamp[neighbour] != gen or new_dist < dist[neighbour]:
                dist[neighbour] = new_dist
                stamp[neighbour] = gen
                push(heap, (new_dist, neighbour))
    return settled_ids


def _filter_groups(
    pairs: list[list[tuple[float, int]]],
    groups: list[FilterGroup],
    t: float,
) -> FilterResult:
    """Decide one band's per-source groups against the frozen snapshot.

    ``pairs`` is the snapshot's :func:`_csr_as_pairs` rows.  Returns
    ``(candidate_indices, settles, covered)``: the canonical indices of the
    edges the frozen spanner could NOT reject, the ball settle count, and
    every settled ``(source, x)`` pair packed into the coverage cache's
    ``(min << 32) | max`` key encoding — the packing is vectorized here (one
    numpy min/max/shift per ball) so the merge is a single ``set.update``.
    Pure function of the arguments: the determinism anchor.
    """
    candidates: list[int] = []
    settles = 0
    covered: list[int] = []
    dist, stamp, genbox = _scalar_scratch(len(pairs))
    for source_id, items in groups:
        radius = t * items[-1][2]  # canonical order: last item has max weight
        genbox[0] += 1
        gen = genbox[0]
        settled_ids = _scalar_ball(pairs, source_id, radius, dist, stamp, gen)
        settles += len(settled_ids)
        ids = np.fromiter(settled_ids, dtype=np.int64, count=len(settled_ids))
        packed = (np.minimum(ids, source_id) << 32) | np.maximum(ids, source_id)
        covered.extend(packed.tolist())
        for canonical_index, target_id, weight in items:
            if stamp[target_id] != gen or dist[target_id] > t * weight:
                candidates.append(canonical_index)
    return candidates, settles, covered


def parallel_greedy_spanner(
    graph: WeightedGraph,
    t: float,
    *,
    bands: int = DEFAULT_BANDS,
    band_edges: Optional[int] = None,
    edges: Optional[Iterable[WeightedEdge]] = None,
) -> Spanner:
    """Build the greedy ``t``-spanner on the CSR band-filter path.

    Byte-identical to ``greedy_spanner(graph, t)`` — same edge set, same
    weights — for every ``bands`` / ``band_edges`` choice; the knobs trade
    filter freshness against per-band overhead, never correctness.

    Parameters
    ----------
    graph:
        The weighted graph ``G`` (lazy views such as
        :class:`~repro.metric.closure.MetricClosure` work: only the vertex
        set, ``number_of_edges`` and a sorted edge source are consumed).
    t:
        The stretch parameter, ``t ≥ 1``.
    bands:
        Target number of weight bands (ignored when ``band_edges`` is given).
    band_edges:
        Explicit band size in edges; defaults to ``m / bands``.
    edges:
        Optional canonical-order edge source overriding
        ``graph.edges_sorted_by_weight()`` (e.g. the streaming pipeline).

    Returns
    -------
    Spanner
        Metadata counters: ``edges_examined`` / ``edges_added`` (as the
        serial builder), ``build_filter_settles`` / ``build_replay_settles``
        / ``build_candidate_edges`` / ``build_cache_hits`` /
        ``build_bands`` (all deterministic) and ``dijkstra_settles``
        (filter + replay total, comparable with the serial strategies).
    """
    check_stretch(t)
    spanner_graph = graph.empty_spanning_subgraph()
    mirror = IndexedGraph(vertices=graph.vertices())
    if edges is None:
        edges = graph.edges_sorted_by_weight()
    total_edges = graph.number_of_edges
    if band_edges is None:
        band_edges = max(1, -(-total_edges // max(1, bands)))

    examined = 0
    added = 0
    band_count = 0
    filter_settles = 0
    replay_settles = 0
    candidate_total = 0
    cache_hits = 0
    #: Monotone coverage cache: packed unordered pairs (u, x) certified
    #: ``δ(u, x) ≤ r`` by some earlier ball or replay search of radius
    #: ``r ≤ t·w`` for every weight ``w`` still ahead in the canonical order
    #: (bands are non-decreasing), so membership alone rejects forever.
    covered: set[int] = set()
    covered_add = covered.add
    # Every vertex is interned at mirror construction, so the per-edge id
    # translation is a plain dict subscript — no intern() call per endpoint.
    id_of = mirror.id_map()
    for band in edge_bands(edges, band_edges):
        band_count += 1
        groups: dict[int, list[tuple[int, int, float]]] = {}
        info: dict[int, tuple] = {}
        # First pass: cache-reject, intern, and count endpoint frequencies of
        # the surviving edges.  Each survivor is then grouped under its
        # *busier* endpoint (ties to the lower id), so one ball decides as
        # many edges as possible — fewer balls than always keying on the
        # canonical source, at identical verdicts (δ is symmetric, so either
        # endpoint's ball decides the edge).
        survivors: list[tuple[int, int, int, object, object, float]] = []
        frequency: dict[int, int] = {}
        for offset, (u, v, weight) in enumerate(band):
            canonical_index = examined + offset
            uid = id_of[u]
            vid = id_of[v]
            # The packed unordered pair, inlined: this runs once per edge.
            if ((uid << 32) | vid if uid < vid else (vid << 32) | uid) in covered:
                cache_hits += 1
                continue
            survivors.append((canonical_index, uid, vid, u, v, weight))
            frequency[uid] = frequency.get(uid, 0) + 1
            frequency[vid] = frequency.get(vid, 0) + 1
        for canonical_index, uid, vid, u, v, weight in survivors:
            fu = frequency[uid]
            fv = frequency[vid]
            if fu > fv or (fu == fv and uid < vid):
                source_id, target_id = uid, vid
            else:
                source_id, target_id = vid, uid
            groups.setdefault(source_id, []).append(
                (canonical_index, target_id, weight)
            )
            info[canonical_index] = (u, v, uid, vid, weight)
        examined += len(band)
        if not groups:
            continue
        candidates, settles, harvest = _filter_groups(
            _csr_as_pairs(mirror.finalize()), list(groups.items()), t
        )
        candidates.sort()
        filter_settles += settles
        candidate_total += len(candidates)
        covered.update(harvest)
        for canonical_index in candidates:
            u, v, uid, vid, weight = info[canonical_index]
            cutoff = t * weight
            distance, settled_f, settled_b = indexed_bidirectional_cutoff(
                mirror, uid, vid, cutoff
            )
            replay_settles += len(settled_f) + len(settled_b)
            # Replay half-balls are certified bounds on the live (even
            # larger) spanner at cutoff t·w ≤ every future cutoff — free
            # coverage, exactly the oracle's harvesting (pair packing
            # inlined in both loops).
            for x in settled_f:
                covered_add((uid << 32) | x if uid < x else (x << 32) | uid)
            for x in settled_b:
                covered_add((vid << 32) | x if vid < x else (x << 32) | vid)
            if distance > cutoff:
                spanner_graph.add_edge(u, v, weight)
                mirror.append_edge_unchecked_ids(uid, vid, weight)
                added += 1
                covered_add((uid << 32) | vid if uid < vid else (vid << 32) | uid)

    metadata = {
        "distance_queries": float(examined),
        "dijkstra_settles": float(filter_settles + replay_settles),
        "edges_examined": float(examined),
        "edges_added": float(added),
        "build_filter_settles": float(filter_settles),
        "build_replay_settles": float(replay_settles),
        "build_candidate_edges": float(candidate_total),
        "build_cache_hits": float(cache_hits),
        "build_bands": float(band_count),
    }
    return Spanner(
        base=graph,
        subgraph=spanner_graph,
        stretch=t,
        algorithm="greedy-parallel",
        metadata=metadata,
    )


def parallel_greedy_spanner_of_metric(
    metric: FiniteMetric,
    t: float,
    *,
    bands: int = DEFAULT_BANDS,
) -> Spanner:
    """Band greedy on the complete graph of a finite metric space.

    The Θ(n²) complete graph is never materialized: bands are cut straight
    from the PR-2 streaming pipeline and the spanner's ``base`` is the lazy
    :class:`MetricClosure` view, exactly as in
    :func:`~repro.core.greedy.greedy_spanner_of_metric`.
    """
    closure = MetricClosure(metric)
    spanner = parallel_greedy_spanner(
        closure, t, bands=bands, edges=sorted_pair_stream(metric)
    )
    spanner.algorithm = "greedy-parallel-metric"
    return spanner
