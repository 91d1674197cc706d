"""The indexed batch verification engine: stretch checks as fast as builds.

Section 2 of the paper notes that to bound the stretch of a spanner it
suffices to look at the edges of the base graph; :func:`verify_spanner_edges`
implements exactly that check, :func:`verify_spanner_sampled` spot-checks
random vertex pairs, and :func:`stretch_profile` returns the distribution of
per-pair stretches used by the comparison experiments.

Every checker runs on one batch engine over a shared id map (ids assigned
in ``base.vertices()`` order); each translation of base or subgraph is
built once, on first use.  The edge check is the library's only stretch
checker: :class:`~repro.core.spanner.Spanner`'s ``is_valid``,
``verify_stretch`` and ``statistics(measure_stretch=True)`` all run it.
It hands each source its base edges to larger ids — a graph base's edges
grouped by smaller endpoint, or a metric base's row, built one source at a
time (zero-distance pairs skipped).  A base edge ``(u, v, w)`` whose own
subgraph edge weighs at most both ``w`` and its bound ``t·w·(1 +
tolerance)`` is certified with no search; the source's remaining targets
share *one* Dijkstra on the subgraph's weight-sorted rows, pruned at the
largest remaining bound and stopped as soon as the last of them settles.
The report carries the first failing edge (``witness``) and the largest
settled ``d / w`` (``max_stretch``); at ``t = inf`` nothing is pruned, so
``max_stretch`` is the exact maximum edge stretch.  The exact stretch
profile runs one full indexed SSSP per source and reduces the per-target
ratio rows with vectorized numpy arithmetic.  For lazy complete-graph bases
(:class:`~repro.metric.closure.MetricClosure`) the base distance rows come
straight from the metric — vectorized for Euclidean point sets — so no
search ever touches the Θ(n²) closure.

The engine agrees *bit for bit* with the seed per-pair implementation (one
dict-based Dijkstra per base edge / per profile source, and the seed
``Spanner.max_stretch_over_edges`` loop), kept as the reference oracle in
``tests/oracles/verification.py``: Dijkstra's settled distances are the
minimum over identical left-associated path sums whatever the relaxation
order, ratios divide the same floats, and the profile reduction is defined
order-independently (per-source ``math.fsum`` rows folded by an outer
``fsum``), so verdicts, maximum edge stretches, profiles and pair counts are
hypothesis-tested for exact equality.  Pairs are deduped by shared-id order,
for every vertex type.

``workers=N`` shards the per-source loops across forked worker processes via
:func:`repro.experiments.harness.run_sharded`; shard order is preserved,
counters merge by addition, ``max_stretch`` by ``max`` and the witness is
the first in shard order, so the merged result is identical for 1 and N
workers (property-tested, graph and metric bases).  ``repro bench verify``
persists the engine's deterministic ``verify_settles`` / ``profile_settles``
operation counts to ``BENCH_verify.json``, gated by
``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional, Sequence

import numpy as np

from repro.core.spanner import Spanner
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import indexed_sssp
from repro.graph.weighted_graph import Vertex, WeightedGraph


# ---------------------------------------------------------------------------
# The shared indexed substrate
# ---------------------------------------------------------------------------
class VerificationEngine:
    """Base + subgraph over one shared dense-id map.

    Ids are assigned in ``base.vertices()`` iteration order and shared by
    every translation, so an id means the same vertex on both sides — the
    property every batch check below relies on.  The translations are built
    on first use: the indexed base only for full base rows, the indexed
    subgraph for full subgraph rows, the grouped base edges and the
    weight-sorted subgraph rows for the edge check.  When the base is a
    lazy complete-graph view over a metric, base distance *rows* are served
    from the metric itself (``δ(u, ·)`` is the direct-edge row by the
    triangle inequality) instead of searching the Θ(n²) closure; they are
    also the edge check's per-source base edges.

    The edge check's scratch makes an engine single-threaded; the
    ``workers=`` shards each get their own copy by fork.
    """

    __slots__ = (
        "base",
        "subgraph",
        "vertices",
        "id_of",
        "metric",
        "dist",
        "stamp",
        "gen",
        "_base_indexed",
        "_sub_indexed",
        "_sub_rows",
        "_grouped",
    )

    def __init__(self, base: WeightedGraph, subgraph: WeightedGraph) -> None:
        self.base = base
        self.subgraph = subgraph
        self.vertices: list[Vertex] = list(base.vertices())
        self.metric = getattr(base, "metric", None)
        self.id_of = {vertex: vid for vid, vertex in enumerate(self.vertices)}
        # The edge check's generation-stamped search scratch.
        self.dist: list[float] = [0.0] * len(self.vertices)
        self.stamp: list[int] = [0] * len(self.vertices)
        self.gen = 0
        self._base_indexed: Optional[IndexedGraph] = None
        self._sub_indexed: Optional[IndexedGraph] = None
        self._sub_rows: Optional[list[list[tuple[float, int]]]] = None
        self._grouped: Optional[dict[int, tuple[list[int], list[float]]]] = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    # -- translations, built on first use -------------------------------
    @property
    def base_indexed(self) -> IndexedGraph:
        """The indexed base graph (graph bases only: closures are never
        materialized, their rows come from the metric)."""
        if self._base_indexed is None:
            self._base_indexed = IndexedGraph.from_weighted_graph(self.base)
        return self._base_indexed

    @property
    def sub_indexed(self) -> IndexedGraph:
        """The indexed subgraph over the shared ids."""
        if self._sub_indexed is None:
            indexed = IndexedGraph(vertices=self.vertices)
            id_of = self.id_of
            for u, v, weight in self.subgraph.edges():
                indexed.append_edge_unchecked_ids(id_of[u], id_of[v], weight)
            self._sub_indexed = indexed
        return self._sub_indexed

    @property
    def sub_rows(self) -> list[list[tuple[float, int]]]:
        """The subgraph as weight-sorted ``(weight, neighbour)`` rows by id.

        Sorted rows let a pruned search *break* out of a row at the first
        edge that overshoots its radius.
        """
        if self._sub_rows is None:
            rows: list[list[tuple[float, int]]] = [[] for _ in range(self.n)]
            id_of = self.id_of
            for u, v, weight in self.subgraph.edges():
                uid, vid = id_of[u], id_of[v]
                rows[uid].append((weight, vid))
                rows[vid].append((weight, uid))
            for row in rows:
                row.sort()
            self._sub_rows = rows
        return self._sub_rows

    # -- distance rows --------------------------------------------------
    def base_row(self, source_id: int) -> tuple[np.ndarray, int]:
        """Return ``(distances from source to every id, settles)`` in the base.

        Metric bases cost zero settles (the row *is* the metric row);
        graph bases pay one full indexed SSSP.
        """
        if self.metric is not None:
            source = self.vertices[source_id]
            distances_from = getattr(self.metric, "distances_from", None)
            if distances_from is not None:
                row = np.asarray(distances_from(source), dtype=float)
            else:
                distance = self.metric.distance
                row = np.fromiter(
                    (distance(source, other) for other in self.vertices),
                    dtype=float,
                    count=self.n,
                )
            return row, 0
        dist, _, settles = indexed_sssp(self.base_indexed, source_id)
        return np.asarray(dist, dtype=float), settles

    def sub_row(self, source_id: int) -> tuple[np.ndarray, int]:
        """Return ``(distances in the subgraph, settles)`` via one indexed SSSP."""
        dist, _, settles = indexed_sssp(self.sub_indexed, source_id)
        return np.asarray(dist, dtype=float), settles

    # -- base edges by owning source ------------------------------------
    def grouped_base_edges(self) -> dict[int, tuple[list[int], list[float]]]:
        """Group a graph base's edges by their smaller endpoint id (built once).

        Returns ``{source_id: (target_ids, weights)}``; each undirected edge
        appears exactly once, under its smaller id, and sources keep the
        order of their first edge in ``base.edges()``.  Metric bases are
        never grouped this way (every pair is an edge, Θ(n²) entries):
        :meth:`base_edges_from` slices their rows one source at a time.
        """
        if self._grouped is None:
            id_of = self.id_of
            grouped: dict[int, tuple[list[int], list[float]]] = {}
            for u, v, weight in self.base.edges():
                uid, vid = id_of[u], id_of[v]
                if vid < uid:
                    uid, vid = vid, uid
                slot = grouped.get(uid)
                if slot is None:
                    slot = ([], [])
                    grouped[uid] = slot
                slot[0].append(vid)
                slot[1].append(weight)
            self._grouped = grouped
        return self._grouped

    def base_edges_from(self, source_id: int) -> tuple[list[int], list[float]]:
        """``(target_ids, weights)`` of the base edges from ``source_id`` to larger ids.

        Metric bases slice the metric row (zero-distance pairs skipped), so
        the edge check holds one O(n) row at a time.
        """
        if self.metric is None:
            return self.grouped_base_edges().get(source_id, ([], []))
        row, _ = self.base_row(source_id)
        tail = row[source_id + 1 :]
        mask = tail > 0.0
        targets = np.flatnonzero(mask) + (source_id + 1)
        return targets.tolist(), tail[mask].tolist()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeVerification:
    """Outcome and operation counts of one batch edge-verification run."""

    ok: bool
    edges_checked: int
    sources: int
    settles: int
    #: The first failing base edge ``(u, v, weight)`` in shard order, or None.
    witness: Optional[tuple[Vertex, Vertex, float]] = None
    #: Max of ``δ_H(u, v) / w`` over the searched edges, floored at 1.0:
    #: exact when ``ok`` (``inf`` for a disconnected edge at ``t = inf``).
    max_stretch: float = 1.0

    def counters(self) -> dict[str, float]:
        """The deterministic operation counts the bench trajectory records."""
        return {
            "verify_settles": float(self.settles),
            "verify_sources": float(self.sources),
            "verify_edges_checked": float(self.edges_checked),
        }


@dataclass(frozen=True)
class ProfileStats:
    """Operation counts of one stretch-profile run."""

    sources: int
    settles: int

    def counters(self) -> dict[str, float]:
        return {
            "profile_settles": float(self.settles),
            "profile_sources": float(self.sources),
        }


@dataclass(frozen=True)
class StretchProfile:
    """Summary statistics of the per-pair stretch distribution of a spanner.

    ``mean_stretch`` is defined as ``fsum(per-source row sums) / pairs`` with
    each row itself an ``fsum`` over that source's ratios in shared-id
    order — correctly-rounded partial sums, so the value is independent of
    evaluation order (worker count) and bit-comparable with the reference.
    """

    pairs_checked: int
    max_stretch: float
    mean_stretch: float
    fraction_at_stretch_one: float

    def as_row(self) -> dict[str, float]:
        """Return the profile as a flat dictionary (one table row)."""
        return {
            "pairs_checked": float(self.pairs_checked),
            "max_stretch": self.max_stretch,
            "mean_stretch": self.mean_stretch,
            "fraction_at_stretch_one": self.fraction_at_stretch_one,
        }


#: One source's profile partial: (pairs, row_fsum, row_max, pairs_at_one).
_ProfileRow = tuple[int, float, float, int]


def _reduce_profile(rows: Sequence[_ProfileRow]) -> StretchProfile:
    """Fold per-source partial rows into a :class:`StretchProfile`."""
    pairs = sum(row[0] for row in rows)
    if pairs == 0:
        return StretchProfile(0, 1.0, 1.0, 1.0)
    total = math.fsum(row[1] for row in rows)
    worst = max(row[2] for row in rows)
    at_one = sum(row[3] for row in rows)
    return StretchProfile(
        pairs_checked=pairs,
        max_stretch=worst,
        mean_stretch=total / pairs,
        fraction_at_stretch_one=at_one / pairs,
    )


# ---------------------------------------------------------------------------
# Parallel shard workers (module-level so the forked pool can address them;
# the engine itself is inherited by fork, never pickled)
# ---------------------------------------------------------------------------
_PARALLEL_ENGINE: Optional[VerificationEngine] = None
_PARALLEL_PARAMS: dict[str, float] = {}


def _profile_shard(source_ids: list[int]) -> tuple[list[_ProfileRow], dict[str, float]]:
    """Profile one shard of sources on the inherited engine."""
    engine = _PARALLEL_ENGINE
    rows: list[_ProfileRow] = []
    settles = 0
    for source_id in source_ids:
        row, spent = _profile_one_source(engine, source_id)
        rows.append(row)
        settles += spent
    return rows, {"settles": settles}


def _verify_shard(source_ids: list[int]) -> EdgeVerification:
    """Verify one shard of edge sources on the inherited engine."""
    return _verify_sources(
        _PARALLEL_ENGINE, source_ids, _PARALLEL_PARAMS["t"], _PARALLEL_PARAMS["tolerance"]
    )


def _verify_sources(
    engine: VerificationEngine,
    source_ids: Sequence[int],
    t: float,
    tolerance: float,
) -> EdgeVerification:
    """Run :func:`_verify_one_source` over every source, failing ones included.

    ``sources`` counts searches (a search settles at least its source); the
    witness is the first failure in ``source_ids`` order.
    """
    vertices = engine.vertices
    edges_from = engine.base_edges_from
    witness = None
    worst = 1.0
    edges = sources = settles = 0
    for source_id in source_ids:
        targets, weights = edges_from(source_id)
        failed, stretch, spent = _verify_one_source(
            engine, source_id, targets, weights, t, tolerance
        )
        edges += len(targets)
        sources += spent > 0
        settles += spent
        if stretch > worst:
            worst = stretch
        if failed is not None and witness is None:
            witness = (vertices[source_id], vertices[failed[0]], failed[1])
    return EdgeVerification(
        ok=witness is None,
        edges_checked=edges,
        sources=sources,
        settles=settles,
        witness=witness,
        max_stretch=worst,
    )


def _profile_one_source(
    engine: VerificationEngine, source_id: int
) -> tuple[_ProfileRow, int]:
    """Compute one source's profile partial over targets with larger id."""
    base_row, base_settles = engine.base_row(source_id)
    sub_row, sub_settles = engine.sub_row(source_id)
    targets = slice(source_id + 1, engine.n)
    original = base_row[targets]
    mask = (original > 0.0) & np.isfinite(original)
    original = original[mask]
    if original.size == 0:
        return (0, 0.0, -math.inf, 0), base_settles + sub_settles
    with np.errstate(divide="ignore"):
        ratios = sub_row[targets][mask] / original
    at_one = int(np.count_nonzero(ratios <= 1.0 + 1e-9))
    row = (int(ratios.size), math.fsum(ratios), float(ratios.max()), at_one)
    return row, base_settles + sub_settles


def _verify_one_source(
    engine: VerificationEngine,
    source_id: int,
    targets: list[int],
    weights: list[float],
    t: float,
    tolerance: float,
) -> tuple[Optional[tuple[int, float]], float, int]:
    """Check one source's base edges; return ``(failed, max_stretch, settles)``.

    ``failed`` is the failing edge's ``(target, weight)`` (None if all
    pass); ``max_stretch`` is the largest ``d / w`` settled.  A target whose
    own subgraph edge weighs at most both ``w`` and its bound ``t·w·(1 +
    tolerance)`` needs no search (its stretch is at most 1).  The rest share
    one Dijkstra on the weight-sorted subgraph rows, pruned at their largest
    bound: a target within its bound settles at its exact distance before
    the prune can cut it off, so the search stops once the last target
    settles.  It fails at the first target settled above its bound, or when
    the heap empties with a target of finite bound pending; at an infinite
    bound (``t = inf``) ``δ_H = ∞`` is not above ``∞·w``, the target just
    has stretch ``∞``.
    """
    rows = engine.sub_rows
    scale = 1.0 + tolerance
    pending = dict(zip(targets, weights))
    for weight, neighbour in rows[source_id]:
        base_weight = pending.get(neighbour)
        if base_weight is not None and weight <= base_weight and weight <= t * base_weight * scale:
            del pending[neighbour]
    worst = 1.0
    if not pending:
        return None, worst, 0
    # Rounding is monotone, so the largest bound is the largest weight's.
    cutoff = t * max(pending.values()) * scale
    dist = engine.dist
    stamp = engine.stamp
    engine.gen = gen = engine.gen + 1
    pop = heappop
    push = heappush
    heap: list[tuple[float, int]] = [(0.0, source_id)]
    dist[source_id] = 0.0
    stamp[source_id] = gen
    settles = 0
    while heap:
        d, vertex = pop(heap)
        if d > dist[vertex]:
            continue
        settles += 1
        base_weight = pending.pop(vertex, None)
        if base_weight is not None:
            if d > t * base_weight * scale:
                return (vertex, base_weight), worst, settles
            stretch = d / base_weight
            if stretch > worst:
                worst = stretch
            if not pending:
                return None, worst, settles
        for weight, neighbour in rows[vertex]:
            new_dist = d + weight
            if new_dist > cutoff:
                break  # rows are weight-sorted: every later neighbour overshoots
            if stamp[neighbour] != gen or new_dist < dist[neighbour]:
                dist[neighbour] = new_dist
                stamp[neighbour] = gen
                push(heap, (new_dist, neighbour))
    for target, base_weight in pending.items():
        if t * base_weight * scale < math.inf:  # δ_H = ∞ is not above ∞·w
            return (target, base_weight), worst, settles
    return None, math.inf, settles


def _run_engine_shards(task, shards, workers):
    """Run shards through :func:`repro.experiments.harness.run_sharded`.

    Imported lazily to keep the spanners layer import-independent of the
    experiments layer at module load.
    """
    from repro.experiments.harness import run_sharded

    return run_sharded(task, shards, workers=workers)


def _shard_sources(items: list, workers: Optional[int]) -> list[list]:
    from repro.experiments.harness import deterministic_shards, resolve_worker_count

    worker_count = resolve_worker_count(workers)
    # A few shards per worker keeps the pool busy without costing determinism
    # (results are reduced in shard order either way).
    return deterministic_shards(items, max(1, worker_count * 4))


# ---------------------------------------------------------------------------
# Edge verification
# ---------------------------------------------------------------------------
def verify_spanner_edges(
    subgraph: WeightedGraph,
    base: WeightedGraph,
    t: float,
    *,
    tolerance: float = 1e-9,
    workers: Optional[int] = None,
    engine: Optional[VerificationEngine] = None,
) -> bool:
    """Return True if ``subgraph`` stretches no base edge by more than ``t``."""
    return verify_spanner_edges_detailed(
        subgraph,
        base,
        t,
        tolerance=tolerance,
        workers=workers,
        engine=engine,
    ).ok


def verify_spanner_edges_detailed(
    subgraph: WeightedGraph,
    base: WeightedGraph,
    t: float,
    *,
    tolerance: float = 1e-9,
    workers: Optional[int] = None,
    engine: Optional[VerificationEngine] = None,
) -> EdgeVerification:
    """Edge verification with the operation counts the bench trajectory records."""
    if engine is None:
        engine = VerificationEngine(base, subgraph)
    return _verify_edges_indexed(engine, t, tolerance, workers)


def _verify_edges_indexed(
    engine: VerificationEngine, t: float, tolerance: float, workers: Optional[int]
) -> EdgeVerification:
    if engine.metric is None:
        source_ids = list(engine.grouped_base_edges())
    else:
        source_ids = list(range(engine.n - 1))
    engine.sub_rows  # built here, so forked shards inherit the rows and groups
    # A serial run skips the harness import (multiprocessing costs ~2 MB).
    serial = workers is None or workers == 1
    shards = [source_ids] if serial else _shard_sources(source_ids, workers)
    if len(shards) <= 1:
        return _verify_sources(engine, source_ids, t, tolerance)
    global _PARALLEL_ENGINE, _PARALLEL_PARAMS
    _PARALLEL_ENGINE = engine
    _PARALLEL_PARAMS = {"t": t, "tolerance": tolerance}
    try:
        results = _run_engine_shards(_verify_shard, shards, workers)
    finally:
        _PARALLEL_ENGINE = None
        _PARALLEL_PARAMS = {}
    witness = next((result.witness for result in results if result.witness is not None), None)
    return EdgeVerification(
        ok=witness is None,
        edges_checked=sum(result.edges_checked for result in results),
        sources=sum(result.sources for result in results),
        settles=sum(result.settles for result in results),
        witness=witness,
        max_stretch=max(result.max_stretch for result in results),
    )


# ---------------------------------------------------------------------------
# Sampled verification
# ---------------------------------------------------------------------------
def _sampled_pair_distances(
    engine: VerificationEngine, pairs: Sequence[tuple[Vertex, Vertex]]
) -> tuple[list[tuple[float, float]], int, int]:
    """Resolve sampled pairs to ``(base_distance, sub_distance)`` tuples.

    The sampled checks share this loop: one cached row per distinct
    sampled source (base rows free on metric bases), pairs with zero or
    infinite base distance skipped.  Returns ``(distances, distinct_sources,
    settles)``.
    """
    id_of = engine.id_of
    base_rows: dict[int, np.ndarray] = {}
    sub_rows: dict[int, np.ndarray] = {}
    distances: list[tuple[float, float]] = []
    settles = 0
    for u, v in pairs:
        uid, vid = id_of[u], id_of[v]
        base_row = base_rows.get(uid)
        if base_row is None:
            base_row, base_settles = engine.base_row(uid)
            base_rows[uid] = base_row
            settles += base_settles
        base_distance = float(base_row[vid])
        if base_distance == 0.0 or math.isinf(base_distance):
            continue
        sub_row = sub_rows.get(uid)
        if sub_row is None:
            sub_row, sub_settles = engine.sub_row(uid)
            sub_rows[uid] = sub_row
            settles += sub_settles
        distances.append((base_distance, float(sub_row[vid])))
    return distances, len(base_rows), settles


def verify_spanner_sampled(
    spanner: Spanner,
    *,
    samples: int = 200,
    seed: Optional[int] = None,
    tolerance: float = 1e-9,
    engine: Optional[VerificationEngine] = None,
) -> bool:
    """Spot-check the stretch guarantee on ``samples`` random vertex pairs.

    The engine caches one full subgraph SSSP row per distinct sampled
    source, so repeated sources (and metric bases, whose base distance is
    the direct edge) cost no extra search.
    """
    rng = random.Random(seed)
    vertices = list(spanner.base.vertices())
    if len(vertices) < 2:
        return True
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(samples)]
    threshold = spanner.stretch * (1.0 + tolerance)

    if engine is None:
        engine = VerificationEngine(spanner.base, spanner.subgraph)
    distances, _, _ = _sampled_pair_distances(engine, pairs)
    return all(
        sub_distance <= threshold * base_distance
        for base_distance, sub_distance in distances
    )


# ---------------------------------------------------------------------------
# Stretch profile
# ---------------------------------------------------------------------------
def stretch_profile(
    spanner: Spanner,
    *,
    exact: bool = True,
    samples: int = 500,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    sources: Optional[Sequence[Vertex]] = None,
    engine: Optional[VerificationEngine] = None,
) -> StretchProfile:
    """Compute the stretch distribution of a spanner.

    With ``exact=True`` (the default) every vertex pair is measured — each
    unordered pair once, from its smaller shared-id endpoint — via one SSSP
    per source; ``sources`` restricts the exact sweep to the given source
    vertices (their rows stay exact; the bench uses this to profile
    ``n = 10⁴`` instances from a deterministic source shard).  Otherwise
    ``samples`` random pairs are used.
    """
    profile, _ = stretch_profile_detailed(
        spanner,
        exact=exact,
        samples=samples,
        seed=seed,
        workers=workers,
        sources=sources,
        engine=engine,
    )
    return profile


def stretch_profile_detailed(
    spanner: Spanner,
    *,
    exact: bool = True,
    samples: int = 500,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    sources: Optional[Sequence[Vertex]] = None,
    engine: Optional[VerificationEngine] = None,
) -> tuple[StretchProfile, ProfileStats]:
    """:func:`stretch_profile` plus the engine's operation counts."""
    if not exact:
        return _profile_sampled(spanner, samples, seed, engine)
    if engine is None:
        engine = VerificationEngine(spanner.base, spanner.subgraph)
    if sources is None:
        source_ids = list(range(engine.n))
    else:
        source_ids = [engine.id_of[vertex] for vertex in sources]
    shards = _shard_sources(source_ids, workers)
    if len(shards) <= 1 or workers is None or workers == 1:
        rows: list[_ProfileRow] = []
        settles = 0
        for source_id in source_ids:
            row, spent = _profile_one_source(engine, source_id)
            rows.append(row)
            settles += spent
    else:
        global _PARALLEL_ENGINE
        _PARALLEL_ENGINE = engine
        try:
            results = _run_engine_shards(_profile_shard, shards, workers)
        finally:
            _PARALLEL_ENGINE = None
        from repro.experiments.harness import merge_counters

        rows = [row for shard_rows, _ in results for row in shard_rows]
        settles = int(merge_counters(counters for _, counters in results).get("settles", 0))
    return _reduce_profile(rows), ProfileStats(sources=len(source_ids), settles=settles)


def _profile_sampled(
    spanner: Spanner,
    samples: int,
    seed: Optional[int],
    engine: Optional[VerificationEngine],
) -> tuple[StretchProfile, ProfileStats]:
    """Sampled profile; the engine caches one SSSP row per sampled source."""
    rng = random.Random(seed)
    vertices = list(spanner.base.vertices())
    if engine is None:
        engine = VerificationEngine(spanner.base, spanner.subgraph)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(samples)]
    distances, sources, settles = _sampled_pair_distances(engine, pairs)
    stretches = [sub_distance / base_distance for base_distance, sub_distance in distances]
    return _profile_from_samples(stretches), ProfileStats(sources=sources, settles=settles)


def _profile_from_samples(stretches: list[float]) -> StretchProfile:
    """Reduce a flat sampled ratio list (one ``fsum``; sampled rows have no
    per-source structure to preserve)."""
    if not stretches:
        return StretchProfile(0, 1.0, 1.0, 1.0)
    at_one = sum(1 for s in stretches if s <= 1.0 + 1e-9)
    return StretchProfile(
        pairs_checked=len(stretches),
        max_stretch=max(stretches),
        mean_stretch=math.fsum(stretches) / len(stretches),
        fraction_at_stretch_one=at_one / len(stretches),
    )
