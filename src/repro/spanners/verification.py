"""The indexed batch verification engine: stretch checks as fast as builds.

Section 2 of the paper notes that to bound the stretch of a spanner it
suffices to look at the edges of the base graph; :func:`verify_spanner_edges`
implements exactly that check, and :func:`stretch_profile` returns the exact
distribution of per-pair stretches (``repro bench verify`` records it).

Both checks run on one batch engine over a shared id map (ids assigned
in ``base.vertices()`` order); each translation of base or subgraph is
built once, on first use.  The edge check is the library's only stretch
checker: :class:`~repro.core.spanner.Spanner`'s ``is_valid``,
``verify_stretch`` and ``statistics(measure_stretch=True)`` all run it.
It hands each source its base edges to larger ids — a graph base's edges
grouped by smaller endpoint, or a metric base's row (zero-distance pairs
skipped).  A base edge ``(u, v, w)`` whose own subgraph edge weighs at most
both ``w`` and its bound ``t·w·(1 + tolerance)`` is certified with no
search.  On a graph base the source's remaining targets share *one*
Dijkstra on the subgraph's weight-sorted rows, pruned at the largest
remaining bound and stopped as soon as the last of them settles.  On a
metric base, where every pair is a base edge, a block of sources runs
those same Dijkstras in lockstep on flat numpy arrays, popping vertices in
the heap's order, so every report field and counter is the heap kernel's.
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

Both checks run their per-source loop through one runner: ``workers`` of
None, 0 or 1 runs it inline (without importing ``multiprocessing``), and
``workers=N`` shards it across forked worker processes via
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
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.spanner import Spanner
from repro.errors import InvalidStretchError, VertexNotFoundError
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
    also the edge check's base edges, and the padded subgraph rows are its
    block kernel's.

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
        "_padded_rows",
        "_grouped",
    )

    def __init__(self, base: WeightedGraph, subgraph: WeightedGraph) -> None:
        self.base = base
        self.subgraph = subgraph
        self.vertices: list[Vertex] = list(base.vertices())
        self.metric = getattr(base, "metric", None)
        self.id_of = {vertex: vid for vid, vertex in enumerate(self.vertices)}
        for vertex in subgraph.vertices():
            if vertex not in self.id_of:
                raise VertexNotFoundError(vertex)
        # The edge check's generation-stamped search scratch.
        self.dist: list[float] = [0.0] * len(self.vertices)
        self.stamp: list[int] = [0] * len(self.vertices)
        self.gen = 0
        self._base_indexed: Optional[IndexedGraph] = None
        self._sub_indexed: Optional[IndexedGraph] = None
        self._sub_rows: Optional[list[list[tuple[float, int]]]] = None
        self._padded_rows: Optional[tuple[np.ndarray, np.ndarray]] = None
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

    @property
    def padded_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The subgraph as ``(neighbours, weights)`` arrays of shape ``(n, width)``.

        ``width`` is the largest degree (at least 1).  Row ``v`` is padded
        with ``v`` itself at weight 0: a padding slot offers the popped
        vertex its own label, which a strict ``<`` never takes.
        """
        if self._padded_rows is None:
            id_of = self.id_of
            triples = np.array(
                [(id_of[u], id_of[v], weight) for u, v, weight in self.subgraph.edges()],
                dtype=float,
            ).reshape(-1, 3)
            ends = triples[:, :2].astype(np.intp)
            source = np.concatenate((ends[:, 0], ends[:, 1]))
            ranks = np.argsort(source, kind="stable")
            source = source[ranks]
            target = np.concatenate((ends[:, 1], ends[:, 0]))[ranks]
            weight = np.tile(triples[:, 2], 2)[ranks]
            degree = np.bincount(source, minlength=self.n)
            width = max(1, int(degree.max(initial=0)))
            slot = np.arange(source.size) - np.repeat(np.cumsum(degree) - degree, degree)
            neighbours = np.repeat(np.arange(self.n), width).reshape(self.n, width)
            weights = np.zeros((self.n, width))
            neighbours[source, slot] = target
            weights[source, slot] = weight
            self._padded_rows = (neighbours, weights)
        return self._padded_rows

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

    def metric_rows(self, source_ids: Sequence[int]) -> np.ndarray:
        """The metric base rows of ``source_ids`` as one ``(len, n)`` array.

        Contiguous ids take one vectorized ``block_distances`` call (entry
        for entry the floats of :meth:`base_row`); any other run stacks
        :meth:`base_row`.
        """
        first, count = source_ids[0], len(source_ids)
        block_distances = getattr(self.metric, "block_distances", None)
        if block_distances is not None and list(source_ids) == list(range(first, first + count)):
            return block_distances(first, first + count)
        return np.stack([self.base_row(source_id)[0] for source_id in source_ids])

    def sub_row(self, source_id: int) -> tuple[np.ndarray, int]:
        """Return ``(distances in the subgraph, settles)`` via one indexed SSSP."""
        dist, _, settles = indexed_sssp(self.sub_indexed, source_id)
        return np.asarray(dist, dtype=float), settles

    # -- base edges by owning source ------------------------------------
    def grouped_base_edges(self) -> dict[int, tuple[list[int], list[float]]]:
        """Group a graph base's edges by their smaller endpoint id (built once).

        Returns ``{source_id: (target_ids, weights)}``; each undirected edge
        appears exactly once, under its smaller id, sources ascending and
        targets in ``base.edges()`` order.  The groups are runs of the base's
        memoized :meth:`~WeightedGraph.edge_arrays`, whose ids are the
        engine's (both follow ``base.vertices()``); the target ids are taken
        from one int object per vertex, not one per edge.  Metric bases are
        never grouped this way (every pair is an edge, Θ(n²) entries): the
        block kernel reads their rows a block of sources at a time.
        """
        if self._grouped is None:
            _, u_ids, v_ids, weights = self.base.edge_arrays()
            starts = np.flatnonzero(np.diff(u_ids, prepend=-1)).tolist()
            ends = starts[1:] + [len(u_ids)]
            ids = np.array(range(self.n), dtype=object)
            targets, values = ids[v_ids].tolist(), weights.tolist()
            self._grouped = {
                source: (targets[start:end], values[start:end])
                for source, start, end in zip(u_ids[starts].tolist(), starts, ends)
            }
        return self._grouped


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
# Per-source kernels
# ---------------------------------------------------------------------------
def _verify_sources(
    engine: VerificationEngine,
    source_ids: Sequence[int],
    t: float,
    tolerance: float,
) -> EdgeVerification:
    """Check every source's base edges to larger ids, failing ones included.

    Metric bases run :func:`_verify_metric_block` on consecutive blocks of
    sources; graph bases run :func:`_verify_one_source` per source.
    ``sources`` counts searches (a search settles at least its source); the
    witness is the first failure in ``source_ids`` order.
    """
    if engine.metric is not None:
        size = max(1, BLOCK_CELLS // engine.n)
        return _merge_reports(
            [
                _verify_metric_block(engine, source_ids[start : start + size], t, tolerance)
                for start in range(0, len(source_ids), size)
            ]
        )
    vertices = engine.vertices
    grouped = engine.grouped_base_edges()
    witness = None
    worst = 1.0
    edges = sources = settles = 0
    for source_id in source_ids:
        targets, weights = grouped[source_id]
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


def _merge_reports(reports: Sequence[EdgeVerification]) -> EdgeVerification:
    """Fold reports of consecutive source runs: counters add, ``max_stretch``
    is the max and the witness is the first one."""
    witness = next((report.witness for report in reports if report.witness is not None), None)
    return EdgeVerification(
        ok=witness is None,
        edges_checked=sum(report.edges_checked for report in reports),
        sources=sum(report.sources for report in reports),
        settles=sum(report.settles for report in reports),
        witness=witness,
        max_stretch=max((report.max_stretch for report in reports), default=1.0),
    )


def _profile_sources(
    engine: VerificationEngine, source_ids: Sequence[int]
) -> tuple[list[_ProfileRow], int]:
    """Profile rows of ``source_ids`` and the settles they cost."""
    rows: list[_ProfileRow] = []
    settles = 0
    for source_id in source_ids:
        row, spent = _profile_one_source(engine, source_id)
        rows.append(row)
        settles += spent
    return rows, settles


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


#: Cells (sources × vertices) of one metric block: caps the block kernel's
#: scratch at a few ``float64`` arrays of this size.
BLOCK_CELLS = 1 << 15


def _verify_metric_block(
    engine: VerificationEngine, source_ids: Sequence[int], t: float, tolerance: float
) -> EdgeVerification:
    """:func:`_verify_one_source` for a block of metric sources, in lockstep.

    The block's base rows come from one metric call.  A source whose
    targets all have a light enough own edge never enters the loop; the
    others run :func:`_lockstep_pops`, whose pops up to a row's cutoff are
    the heap kernel's settles in the heap kernel's order.  Its stop (the
    first target above its bound, the last pending target, or an empty
    heap) and every report field are rebuilt from that pop sequence.
    """
    n = engine.n
    scale = 1.0 + tolerance
    ids = np.asarray(source_ids)
    base = engine.metric_rows(source_ids)
    with np.errstate(invalid="ignore"):  # ∞·0 on the diagonal, never a target
        bound = t * base * scale
    targets = (np.arange(n) > ids[:, None]) & (base > 0.0)
    edges = int(np.count_nonzero(targets))
    neighbours, weights = engine.padded_rows
    own = np.full(base.shape, np.inf)
    np.put_along_axis(own, neighbours[ids], weights[ids], axis=1)
    pending = targets & ~((own <= base) & (own <= bound))
    searched = np.flatnonzero(pending.any(axis=1))
    if searched.size == 0:
        return EdgeVerification(ok=True, edges_checked=edges, sources=0, settles=0)
    ids, base, bound, pending = ids[searched], base[searched], bound[searched], pending[searched]
    rows = ids.size
    # Rounding is monotone, so the largest bound is the largest weight's.
    cutoff = t * np.where(pending, base, -np.inf).max(axis=1) * scale
    # A pop above the limit means the heap kernel's heap ran empty; the
    # source itself always pops, whatever ``t``.
    limit = np.clip(cutoff, 0.0, np.finfo(float).max)

    order, popped = _lockstep_pops(neighbours, weights, ids, pending, limit)
    steps = order.shape[1]
    row = np.arange(rows)[:, None]
    live = popped <= limit[:, None]  # the heap kernel's pops, a prefix of each row
    hit = pending[row, order] & live
    weight = base[row, order]
    over = hit & (popped > bound[row, order])
    failed = over.any(axis=1)
    first = np.where(failed, over.argmax(axis=1), steps)
    complete = ~failed & (np.count_nonzero(hit, axis=1) == np.count_nonzero(pending, axis=1))
    last = steps - 1 - hit[:, ::-1].argmax(axis=1)
    counted = hit & (np.arange(steps) < first[:, None])
    stretch = np.divide(popped, weight, out=np.ones_like(popped), where=counted)
    worst = stretch.max(axis=1)
    # The heap ran empty: the first target of finite bound left pending fails.
    stranded = pending & (bound < np.inf)
    hit_rows, hit_steps = np.nonzero(hit)
    stranded[hit_rows, order[hit_rows, hit_steps]] = False
    stuck = ~failed & ~complete & stranded.any(axis=1)
    worst[~failed & ~complete & ~stuck] = np.inf
    settles = np.where(
        failed, first + 1, np.where(complete, last + 1, np.count_nonzero(live, axis=1))
    )

    witness = None
    broken = np.flatnonzero(failed | stuck)
    if broken.size:
        index = broken[0]
        if failed[index]:
            target = order[index, first[index]]
        else:
            target = stranded[index].argmax()
        vertices = engine.vertices
        witness = (vertices[ids[index]], vertices[target], float(base[index, target]))
    return EdgeVerification(
        ok=witness is None,
        edges_checked=edges,
        sources=rows,
        settles=int(settles.sum()),
        witness=witness,
        max_stretch=float(worst.max()),
    )


def _lockstep_pops(
    neighbours: np.ndarray,
    weights: np.ndarray,
    ids: np.ndarray,
    pending: np.ndarray,
    limit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one Dijkstra per row from ``ids`` in lockstep; return the pop
    sequence as ``(vertex, distance)`` arrays of shape ``(rows, steps)``.

    The state is flat ``(rows, n)`` arrays of labels and open labels.  A
    step pops every row's ``argmin`` — the heap's ``(d, id)`` order, ties to
    the smaller id — and relaxes the popped vertices' padded neighbour rows
    in one strict-``<`` masked scatter, so each label is the same
    left-folded float sum the heap kernel computes, and a settled vertex
    (label at most the popped one, weights positive) is never relaxed
    again.  Relaxations past a row's cutoff are not pruned: those labels
    exceed every label the heap kernel settles, so they pop only after its
    heap would have run empty.  The loop ends once every row has settled
    its last ``pending`` target or popped a label above its ``limit``;
    a row that ran out of vertices pops ``inf``.
    """
    rows, n = pending.shape
    labels = np.full((rows, n), np.inf)
    labels[np.arange(rows), ids] = 0.0
    frontier = labels.copy()  # open labels: ``inf`` once settled
    flat_labels = labels.reshape(-1)
    flat_frontier = frontier.reshape(-1)
    flat_pending = pending.reshape(-1)
    offsets = np.arange(rows) * n
    row_offsets = offsets[:, None]
    # One step per row of these (contiguous per-step writes).
    order = np.zeros((n, rows), dtype=np.intp)
    popped = np.full((n, rows), np.inf)
    remaining = np.count_nonzero(pending, axis=1)
    steps = 0
    while steps < n:
        vertex = frontier.argmin(axis=1)
        cells = offsets + vertex
        dist = flat_frontier[cells]
        flat_frontier[cells] = np.inf
        order[steps] = vertex
        popped[steps] = dist
        steps += 1
        remaining -= flat_pending[cells]
        slots = row_offsets + neighbours.take(vertex, axis=0)
        relaxed = dist[:, None] + weights.take(vertex, axis=0)
        better = relaxed < flat_labels.take(slots)
        slots, relaxed = slots[better], relaxed[better]
        flat_labels[slots] = relaxed
        flat_frontier[slots] = relaxed
        # Pops only grow, so an overrun of a few steps changes no field.
        if steps % 4 == 0 and not np.any((remaining > 0) & (dist <= limit)):
            break
    return order[:steps].T, popped[:steps].T


# ---------------------------------------------------------------------------
# The per-source runner (the forked pool inherits the task, never pickles it)
# ---------------------------------------------------------------------------
_SHARD_TASK: Optional[Callable[[list[int]], object]] = None


def _run_shard(source_ids: list[int]) -> object:
    """Run one shard of sources through the task the parent published."""
    return _SHARD_TASK(source_ids)


def _run_sources(
    task: Callable[[list[int]], object], source_ids: list[int], workers: Optional[int]
) -> list:
    """Apply ``task`` to ``source_ids``; return its results in shard order.

    ``workers`` of None, 0 or 1 makes one inline call and imports nothing
    (the harness pulls in ``multiprocessing``, ~2 MB).  Otherwise the ids
    are cut into a few contiguous shards per worker for
    :func:`repro.experiments.harness.run_sharded`, whose forked workers
    inherit ``task`` and its engine through a module global.
    """
    if workers in (None, 0, 1):
        return [task(source_ids)]
    from repro.experiments.harness import deterministic_shards, resolve_worker_count, run_sharded

    # A few shards per worker keeps the pool busy without costing determinism
    # (results are reduced in shard order either way).
    shards = deterministic_shards(source_ids, resolve_worker_count(workers) * 4)
    if len(shards) <= 1:
        return [task(source_ids)]
    global _SHARD_TASK
    _SHARD_TASK = task
    try:
        return run_sharded(_run_shard, shards, workers=workers)
    finally:
        _SHARD_TASK = None


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
    if math.isnan(t):  # every ``d > t·w`` test would be false: any subgraph passes
        raise InvalidStretchError(f"stretch must be a number, got {t}")
    if engine is None:
        engine = VerificationEngine(base, subgraph)
    # The rows and groups are built here, so forked shards inherit them.
    if engine.metric is None:
        source_ids = list(engine.grouped_base_edges())
        engine.sub_rows
    else:
        source_ids = list(range(engine.n - 1))
        engine.padded_rows
    reports = _run_sources(
        lambda ids: _verify_sources(engine, ids, t, tolerance), source_ids, workers
    )
    return _merge_reports(reports)


# ---------------------------------------------------------------------------
# Stretch profile
# ---------------------------------------------------------------------------
def stretch_profile(
    spanner: Spanner,
    *,
    sources: Optional[Sequence[Vertex]] = None,
    workers: Optional[int] = None,
    engine: Optional[VerificationEngine] = None,
) -> tuple[StretchProfile, ProfileStats]:
    """Return the exact stretch distribution of a spanner and its operation counts.

    Every vertex pair is measured — each unordered pair once, from its
    smaller shared-id endpoint — via one SSSP per source.  ``sources``
    restricts the sweep to the given source vertices (their rows stay
    exact; the bench uses this to profile ``n = 10⁴`` instances from a
    deterministic source shard); an unknown one raises
    :class:`~repro.errors.VertexNotFoundError`.
    """
    if engine is None:
        engine = VerificationEngine(spanner.base, spanner.subgraph)
    if sources is None:
        source_ids = list(range(engine.n))
    else:
        try:
            source_ids = [engine.id_of[vertex] for vertex in sources]
        except KeyError as missing:
            raise VertexNotFoundError(missing.args[0]) from None
    results = _run_sources(lambda ids: _profile_sources(engine, ids), source_ids, workers)
    rows = [row for shard_rows, _ in results for row in shard_rows]
    settles = sum(spent for _, spent in results)
    return _reduce_profile(rows), ProfileStats(sources=len(source_ids), settles=settles)
