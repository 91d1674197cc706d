"""Deterministic parallel greedy-spanner construction (band filter + replay).

The serial greedy algorithm is inherently sequential: the verdict on edge
``e_i`` depends on the spanner ``H`` accumulated from every earlier verdict.
This module parallelizes it *without changing a single verdict* using a
frozen-filter / canonical-replay decomposition:

1. The canonical non-decreasing ``(weight, repr(u), repr(v))`` edge order —
   a materialized ``edges_sorted_by_weight()`` list or the PR-2 streaming
   pipeline — is chunked into contiguous **weight bands**
   (:func:`repro.metric.stream.edge_bands`; a pure function of the stream,
   never of the worker count).
2. Within a band, every edge is checked against the **frozen** spanner
   ``H_frozen`` — the state after all previous bands finished.  Edges are
   grouped under their *busier* endpoint (band-global frequency count, ties
   to the lower id — fewer balls than always keying on the canonical
   source, at identical verdicts since ``δ`` is symmetric) and each group
   is decided by ONE bounded ball of radius ``t · max(w)`` (the PR-5
   verification discipline), run by worker processes on a shared-memory
   :class:`CSRAdjacency` snapshot.
   Rejection is **sound**: the serial greedy's ``H`` at examination time is a
   superset of ``H_frozen``, so ``δ_frozen(u, v) ≤ t·w`` implies
   ``δ_serial(u, v) ≤ t·w`` — the serial algorithm would have rejected too.
   Across bands, every settled ``(source, x)`` pair is harvested into a
   **monotone coverage cache** (the CachedDijkstraOracle argument: spanners
   only grow and the canonical order only raises cutoffs, so a certified
   bound ``δ(u, x) ≤ r`` keeps rejecting forever); covered pairs are
   rejected by the parent before any ball is scheduled.
3. Survivors ("candidates") are **replayed sequentially in canonical order**
   against the live spanner.  By induction every replayed verdict equals the
   serial verdict, so the constructed spanner is *byte-identical* to
   :func:`repro.core.greedy.greedy_spanner` — for any band size and any
   worker count (``builds_match`` in ``BENCH_build.json``; hypothesis-proven
   in ``tests/core/test_parallel_greedy.py``).

Counters are deterministic and worker-count independent too: groups are
formed per band (not per shard), shards are
:func:`~repro.experiments.harness.deterministic_shards` over whole groups,
and shard results are reduced in shard order.

Worker payloads carry a ~16-byte :class:`SharedCSRDescriptor` per task; the
frozen snapshot's three arrays cross the process boundary through one
``multiprocessing.shared_memory`` block per band, never through pickle.
When fork or shared memory is unavailable (or ``workers <= 1``) the filter
runs inline on the identical code path.
"""

from __future__ import annotations

import os
import signal
from heapq import heappop, heappush
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from repro.errors import InvalidStretchError
from repro.core.spanner import Spanner
from repro.graph.csr import CSRAdjacency, SharedCSRDescriptor, attach_csr, share_csr
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import indexed_bidirectional_cutoff
from repro.graph.weighted_graph import WeightedEdge, WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.metric.stream import edge_bands, sorted_pair_stream

#: Default number of weight bands the canonical order is split into.  More
#: bands means a fresher frozen filter (fewer false candidates to replay)
#: but more per-band synchronization and more filter balls per source; the
#: measured sweet spot on the bench workloads is small (docs/PERFORMANCE.md).
DEFAULT_BANDS = 8

#: A group is ``(source_id, [(canonical_index, target_id, weight), ...])``
#: with items in canonical order, so the last item carries the max weight.
FilterGroup = tuple[int, list[tuple[int, int, float]]]

#: One shard's verdicts: candidate canonical indices, ball settle count and
#: the harvest — packed ``(min_id << 32) | max_id`` coverage pairs, already
#: in the cache's key encoding so the parent merges them with one C-level
#: ``set.update`` instead of a per-pair python loop.
ShardResult = tuple[list[int], int, list[int]]

# Worker-side caches of the attached frozen snapshot (and its bulk pair-row
# conversion for the ball kernel): bands reuse one attachment until the
# parent publishes a new block under a new name.
_ATTACHED: Optional[tuple[str, CSRAdjacency]] = None
_ATTACHED_PAIRS: Optional[tuple[str, list[list[tuple[float, int]]]]] = None

#: Chaos hook for the worker-death regression tests: when set to a band
#: index, a forked filter worker handed that band SIGKILLs itself before
#: deciding its shard (fork workers inherit the parent's value at spawn
#: time).  The parent process never runs :func:`_filter_shard`, so the
#: inline re-filter path is immune by construction.  Never set in
#: production code.
_KILL_AT_BAND: Optional[int] = None


def _attached_csr(descriptor: SharedCSRDescriptor) -> CSRAdjacency:
    global _ATTACHED
    if _ATTACHED is not None and _ATTACHED[0] == descriptor.name:
        return _ATTACHED[1]
    if _ATTACHED is not None:
        _ATTACHED[1].close_shared()
    csr = attach_csr(descriptor)
    _ATTACHED = (descriptor.name, csr)
    return csr


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


# Per-process scratch of the filter kernel, keyed by vertex count: a flat
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
) -> ShardResult:
    """Decide one shard of per-source groups against the frozen snapshot.

    ``pairs`` is the snapshot's :func:`_csr_as_pairs` rows.  Returns
    ``(candidate_indices, settles, covered)``: the canonical indices of the
    edges the frozen spanner could NOT reject, the ball settle count, and
    every settled ``(source, x)`` pair packed into the coverage cache's
    ``(min << 32) | max`` key encoding — the packing is vectorized here (one
    numpy min/max/shift per ball) so the parent's merge is a single
    ``set.update``.  Pure function of the arguments, so verdicts, counts
    and harvests never depend on the worker count: the determinism anchor.
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


def _filter_shard(payload) -> ShardResult:
    """Worker entry point: attach the published snapshot, decide the shard."""
    global _ATTACHED_PAIRS
    frozen, shard, t, band_index = payload
    if _KILL_AT_BAND is not None and band_index == _KILL_AT_BAND:
        # Chaos injection: die exactly the way a OOM-killed or crashed
        # worker would — no exception, no cleanup, the process just stops.
        os.kill(os.getpid(), signal.SIGKILL)
    if isinstance(frozen, SharedCSRDescriptor):
        name = frozen.name
        if _ATTACHED_PAIRS is None or _ATTACHED_PAIRS[0] != name:
            _ATTACHED_PAIRS = (name, _csr_as_pairs(_attached_csr(frozen)))
        pairs = _ATTACHED_PAIRS[1]
    else:
        pairs = _csr_as_pairs(frozen)
    return _filter_groups(pairs, shard, t)


def _pack_pair(a: int, b: int) -> int:
    """Pack an unordered vertex-id pair into one int (the oracle's key trick)."""
    return (a << 32) | b if a < b else (b << 32) | a


class WorkerDeathError(RuntimeError):
    """A filter worker process died mid-band (SIGKILL, OOM kill, crash)."""


class _SupervisedBandPool:
    """A fork worker pool for the band filter that survives worker death.

    ``multiprocessing.Pool.map`` silently hangs when a worker is killed
    mid-task (the task's result never arrives and the pool keeps waiting),
    so the fan-out runs on :class:`concurrent.futures.ProcessPoolExecutor`,
    which detects terminated workers and fails all in-flight work with
    ``BrokenProcessPool``.  This wrapper translates that into
    :class:`WorkerDeathError`, retires the (permanently broken) executor and
    lazily respawns a fresh one for the next band — so one dead worker costs
    exactly one inline band re-filter, never the whole build.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor = None

    def _ensure(self):
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                # Start the shared-memory resource tracker BEFORE forking
                # workers: they then inherit it, so their attach-side
                # registrations dedup against the parent's instead of
                # spawning per-worker trackers that race the parent's unlink
                # at exit.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - private API safety net
                pass
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._executor

    def map(self, fn, payloads: list) -> list:
        """Run ``fn`` over ``payloads``; raises :class:`WorkerDeathError` if a
        worker died, any other exception for ordinary task failures."""
        from concurrent.futures.process import BrokenProcessPool

        executor = self._ensure()
        try:
            return list(executor.map(fn, payloads))
        except BrokenProcessPool as exc:
            self._retire(broken=True)
            raise WorkerDeathError(str(exc)) from exc
        except Exception:
            self._retire(broken=True)
            raise

    def _retire(self, *, broken: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=not broken, cancel_futures=True)

    def close(self) -> None:
        self._retire(broken=False)


def parallel_greedy_spanner(
    graph: WeightedGraph,
    t: float,
    *,
    workers: Optional[int] = 1,
    bands: int = DEFAULT_BANDS,
    band_edges: Optional[int] = None,
    edges: Optional[Iterable[WeightedEdge]] = None,
) -> Spanner:
    """Build the greedy ``t``-spanner on the CSR + band-parallel path.

    Byte-identical to ``greedy_spanner(graph, t)`` — same edge set, same
    weights — for every ``workers`` / ``bands`` / ``band_edges`` choice; the
    knobs trade filter freshness against synchronization, never correctness.

    Parameters
    ----------
    graph:
        The weighted graph ``G`` (lazy views such as
        :class:`~repro.metric.closure.MetricClosure` work: only the vertex
        set, ``number_of_edges`` and a sorted edge source are consumed).
    t:
        The stretch parameter, ``t ≥ 1``.
    workers:
        Worker processes for the band filter, resolved like the PR-5
        executor (``None``/``0`` → 1, negative → all cores).  ``1`` runs the
        identical filter inline — same spanner, same counters.
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
        / ``build_candidate_edges`` / ``build_bands`` (all deterministic and
        worker-count independent), ``build_workers``,
        ``build_shared_memory`` (1.0 when snapshots crossed through shared
        memory) and ``dijkstra_settles`` (filter + replay total, comparable
        with the serial strategies).
    """
    if t < 1.0:
        raise InvalidStretchError(f"stretch must be at least 1, got {t}")
    from repro.experiments.harness import (
        deterministic_shards,
        fork_available,
        resolve_worker_count,
    )

    worker_count = resolve_worker_count(workers)
    spanner_graph = graph.empty_spanning_subgraph()
    mirror = IndexedGraph(vertices=graph.vertices())
    if edges is None:
        edges = graph.edges_sorted_by_weight()
    total_edges = graph.number_of_edges
    if band_edges is None:
        band_edges = max(1, -(-total_edges // max(1, bands)))

    pool: Optional[_SupervisedBandPool] = None
    if worker_count > 1 and fork_available():
        pool = _SupervisedBandPool(worker_count)

    examined = 0
    added = 0
    band_count = 0
    filter_settles = 0
    replay_settles = 0
    candidate_total = 0
    cache_hits = 0
    used_shared_memory = False
    pool_fallbacks = 0
    worker_deaths = 0
    #: Monotone coverage cache: packed unordered pairs (u, x) certified
    #: ``δ(u, x) ≤ r`` by some earlier ball or replay search of radius
    #: ``r ≤ t·w`` for every weight ``w`` still ahead in the canonical order
    #: (bands are non-decreasing), so membership alone rejects forever.
    covered: set[int] = set()
    covered_update = covered.update
    covered_add = covered.add
    # Every vertex is interned at mirror construction, so the per-edge id
    # translation is a plain dict subscript — no intern() call per endpoint.
    id_of = mirror.id_map()
    try:
        for band in edge_bands(edges, band_edges):
            band_count += 1
            groups: dict[int, list[tuple[int, int, float]]] = {}
            info: dict[int, tuple] = {}
            # First pass: cache-reject, intern, and count endpoint
            # frequencies of the surviving edges.  Each survivor is then
            # grouped under its *busier* endpoint (ties to the lower id), so
            # one ball decides as many edges as possible — fewer balls than
            # always keying on the canonical source, at identical verdicts
            # (δ is symmetric, so either endpoint's ball decides the edge).
            # Both passes see only the band and the cache, never the worker
            # count, so grouping stays deterministic.
            survivors: list[tuple[int, int, int, object, object, float]] = []
            frequency: dict[int, int] = {}
            for offset, (u, v, weight) in enumerate(band):
                canonical_index = examined + offset
                uid = id_of[u]
                vid = id_of[v]
                # _pack_pair, inlined: this check runs once per examined edge.
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
            frozen = mirror.finalize()
            group_items: list[FilterGroup] = list(groups.items())
            results: Optional[list[ShardResult]] = None
            if pool is not None and len(group_items) > 1:
                shards = deterministic_shards(group_items, worker_count)
                shm = None
                try:
                    try:
                        shm, descriptor = share_csr(frozen)
                        payload_frozen: object = descriptor
                        used_shared_memory = True
                    except Exception:
                        payload_frozen = frozen  # pickled fallback, still exact
                    results = pool.map(
                        _filter_shard,
                        [(payload_frozen, shard, t, band_count - 1) for shard in shards],
                    )
                except WorkerDeathError:
                    # A worker was killed mid-band (SIGKILL/OOM).  The band's
                    # verdicts are a pure function of (frozen, groups, t), so
                    # the orphaned band is simply re-filtered inline below —
                    # identical candidates, identical counters — and the
                    # supervisor respawns fresh workers for the next band.
                    worker_deaths += 1
                    results = None
                except Exception:
                    pool_fallbacks += 1
                    results = None
                finally:
                    if shm is not None:
                        shm.close()
                        shm.unlink()
            if results is None and group_items:
                results = [_filter_groups(_csr_as_pairs(frozen), group_items, t)]
            results = results or []
            candidates = sorted(chain.from_iterable(part for part, _, _ in results))
            filter_settles += sum(settles for _, settles, _ in results)
            candidate_total += len(candidates)
            for _, _, harvest in results:
                covered_update(harvest)
            for canonical_index in candidates:
                u, v, uid, vid, weight = info[canonical_index]
                cutoff = t * weight
                distance, settled_f, settled_b = indexed_bidirectional_cutoff(
                    mirror, uid, vid, cutoff
                )
                replay_settles += len(settled_f) + len(settled_b)
                # Replay half-balls are certified bounds on the live (even
                # larger) spanner at cutoff t·w ≤ every future cutoff — free
                # coverage, exactly the oracle's harvesting (_pack_pair
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
    finally:
        if pool is not None:
            pool.close()

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
        "build_workers": float(worker_count),
        "build_shared_memory": 1.0 if used_shared_memory else 0.0,
        "build_pool_fallbacks": float(pool_fallbacks),
        "build_worker_deaths": float(worker_deaths),
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
    workers: Optional[int] = 1,
    bands: int = DEFAULT_BANDS,
) -> Spanner:
    """Band-parallel greedy on the complete graph of a finite metric space.

    The Θ(n²) complete graph is never materialized: bands are cut straight
    from the PR-2 streaming pipeline and the spanner's ``base`` is the lazy
    :class:`MetricClosure` view, exactly as in
    :func:`~repro.core.greedy.greedy_spanner_of_metric`.
    """
    closure = MetricClosure(metric)
    spanner = parallel_greedy_spanner(
        closure,
        t,
        workers=workers,
        bands=bands,
        edges=sorted_pair_stream(metric),
    )
    spanner.algorithm = "greedy-parallel-metric"
    return spanner
