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
   ``H_frozen`` — the state after all previous bands finished, which is
   exactly what the live weight-sorted rows of the shared
   :class:`~repro.core.distance_oracle.CoverageIndex` hold before the
   band's replay starts.  Edges are grouped under their *busier* endpoint
   (band-global frequency count, ties to the lower id — fewer balls than
   always keying on the canonical source, at identical verdicts since ``δ``
   is symmetric) and each group is decided by ONE bounded ball of radius
   ``t · max(w)``, as the batch verification engine groups its checks.
   Rejection is **sound**: the serial greedy's ``H`` at examination time is a
   superset of ``H_frozen``, so ``δ_frozen(u, v) ≤ t·w`` implies
   ``δ_serial(u, v) ≤ t·w`` — the serial algorithm would have rejected too.
   Across bands, every settled id is harvested into its source's **ball
   set**, the same monotone coverage the cached oracle uses (spanners only
   grow and the canonical order only raises cutoffs, so a certified bound
   ``δ(u, x) ≤ r`` keeps rejecting forever); an edge whose endpoint's ball
   set holds the other endpoint is rejected before any ball is scheduled.
3. Survivors ("candidates") are **replayed sequentially in canonical order**
   against the live spanner.  By induction every replayed verdict equals the
   serial verdict, so the constructed spanner is *byte-identical* to
   :func:`repro.core.greedy.greedy_spanner` — for any band size
   (``builds_match`` in ``BENCH_build.json``; hypothesis-proven in
   ``tests/core/test_parallel_greedy.py``).

Everything runs in one process; the counters are a pure function of the
workload and the band size.  The filter shares the cached oracle's ball
kernel and ball sets; docs/PERFORMANCE.md compares the two builders.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.distance_oracle import CoverageIndex
from repro.core.greedy import check_stretch
from repro.core.spanner import Spanner
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import indexed_bidirectional_cutoff
from repro.graph.weighted_graph import WeightedEdge, WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.metric.stream import edge_bands, sorted_pair_stream

#: Default number of weight bands the canonical order is split into.  More
#: bands means a fresher frozen filter (fewer false candidates to replay)
#: but more filter balls per source; the measured sweet spot on the bench
#: workloads is small (docs/PERFORMANCE.md).
DEFAULT_BANDS = 8

#: A group is ``(source_id, [(canonical_index, target_id, weight), ...])``
#: with items in canonical order, so the last item carries the max weight.
FilterGroup = tuple[int, list[tuple[int, int, float]]]


def _filter_groups(
    cover: CoverageIndex,
    groups: list[FilterGroup],
    t: float,
) -> tuple[list[int], int]:
    """Decide one band's per-source groups against the frozen spanner.

    ``cover`` holds the spanner as it stood after the previous band: the
    band's replay has not run yet, so its live rows *are* the frozen state.
    Each ball also harvests its settled ids into its source's ball set,
    which this band's filter never reads.  Returns ``(candidate_indices,
    settles)``: the canonical indices of the edges the frozen spanner could
    NOT reject, and the ball settle count.
    """
    candidates: list[int] = []
    settles = 0
    dist = cover.dist
    stamp = cover.stamp
    for source_id, items in groups:
        radius = t * items[-1][2]  # canonical order: last item has max weight
        settles += len(cover.ball(source_id, radius)) - cover.resumed
        gen = cover.gen
        for canonical_index, target_id, weight in items:
            if stamp[target_id] != gen or dist[target_id] > t * weight:
                candidates.append(canonical_index)
    return candidates, settles


def parallel_greedy_spanner(
    graph: WeightedGraph,
    t: float,
    *,
    bands: int = DEFAULT_BANDS,
    edges: Optional[Iterable[WeightedEdge]] = None,
) -> Spanner:
    """Build the greedy ``t``-spanner on the band-filter path.

    Byte-identical to ``greedy_spanner(graph, t)`` — same edge set, same
    weights — for every ``bands`` choice; the knob trades filter freshness
    against per-band overhead, never correctness.

    Parameters
    ----------
    graph:
        The weighted graph ``G`` (lazy views such as
        :class:`~repro.metric.closure.MetricClosure` work: only the vertex
        set, ``number_of_edges`` and a sorted edge source are consumed).
    t:
        The stretch parameter, ``t ≥ 1``.
    bands:
        Target number of weight bands; each band holds about ``m / bands``
        edges.
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
    cover = CoverageIndex(mirror.number_of_vertices)
    if edges is None:
        edges = graph.edges_sorted_by_weight()
    band_size = max(1, -(-graph.number_of_edges // max(1, bands)))

    examined = 0
    added = 0
    band_count = 0
    filter_settles = 0
    replay_settles = 0
    candidate_total = 0
    cache_hits = 0
    # Monotone coverage: x in the ball set of u was certified
    # ``δ(u, x) ≤ r`` by some earlier ball or replay search of radius
    # ``r ≤ t·w`` for every weight ``w`` still ahead in the canonical order
    # (bands are non-decreasing), so membership alone rejects forever.
    covers = cover.covers
    harvest = cover.harvest
    # Every vertex is interned at mirror construction, so the per-edge id
    # translation is a plain dict subscript — no intern() call per endpoint.
    id_of = mirror.id_map()
    for band in edge_bands(edges, band_size):
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
            if covers(uid, vid):
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
        candidates, settles = _filter_groups(cover, list(groups.items()), t)
        candidates.sort()
        filter_settles += settles
        candidate_total += len(candidates)
        for canonical_index in candidates:
            u, v, uid, vid, weight = info[canonical_index]
            cutoff = t * weight
            distance, settled_f, settled_b = indexed_bidirectional_cutoff(
                mirror, uid, vid, cutoff
            )
            replay_settles += len(settled_f) + len(settled_b)
            # Replay half-balls are certified bounds on the live (even
            # larger) spanner at cutoff t·w ≤ every future cutoff — free
            # coverage, exactly the oracle's harvesting.
            harvest(uid, settled_f)
            harvest(vid, settled_b)
            if distance > cutoff:
                spanner_graph.add_edge(u, v, weight)
                mirror.append_edge_unchecked_ids(uid, vid, weight)
                cover.add_edge(uid, vid, weight)
                added += 1
                harvest(uid, (vid,))

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
