"""Streaming sorted-pair pipeline over a finite metric space.

The greedy algorithm on a metric space (Sections 4 and 5 of the paper)
examines all ``n(n-1)/2`` interpoint distances in non-decreasing order.
Materializing the complete graph first costs Θ(n²) memory before the first
edge is even examined — the bottleneck this module removes, in the spirit of
the [DN97, GLN02] lineage of sub-quadratic greedy variants that the paper's
Section 5 runtime discussion builds on.

:func:`sorted_pair_stream` yields the pairs of a :class:`FiniteMetric` in the
**exact** order of ``metric.complete_graph().edges_sorted_by_weight()`` —
byte-identical triples, so the streamed greedy spanner equals the
materialized one — while buffering only ``O(buffer)`` pairs at a time:

1. **Chunked generation.**  Pairs are produced row by row in point order —
   row ``i`` carries the partners ``j > i`` in point order, which is exactly
   the ``itertools.combinations`` generation order of
   ``FiniteMetric.pairs()``.  For :class:`EuclideanMetric` whole blocks of
   rows are computed with the vectorized ``block_distances`` kernel (bitwise
   equal to the scalar ``distance``); other metrics fall back to per-pair
   distance calls.

2. **Weight banding.**  When the pair count exceeds the buffer budget, two
   cheap sweeps (min/max, then a histogram) partition the weight axis into
   contiguous half-open *bands* of roughly ``buffer`` pairs each.  Bands are
   processed in increasing weight order; each band sweeps the rows again and
   keeps only the pairs whose weight falls inside the band.  Distances are
   recomputed once per band — ``O(total/buffer)`` extra sweeps buy peak
   memory of ``O(buffer)`` instead of ``Θ(n²)``.

3. **One lexsort per band.**  Within a band, the in-band pairs are
   gathered as ``(row, col, weight)`` arrays in generation order, with
   ``int32`` point ids, and sorted by one stable
   :func:`~repro.graph.weighted_graph.canonical_order` — a
   ``numpy.lexsort`` on ``(weight, rank(u), rank(v))``, where
   :func:`~repro.graph.weighted_graph.repr_ranks` ranks the points' ``repr``
   strings once per stream.  Equal ``repr`` strings share a rank, so the
   key orders pairs exactly as ``(weight, repr(u), repr(v))`` does, and the
   sort is stable, so ties keep generation order: this is the stable sort
   ``edges_sorted_by_weight`` performs on the complete graph.  Bands are
   disjoint weight intervals, so equal weights never straddle a band
   boundary: the concatenated band outputs are the materialized order.  The
   sorted band is turned into triples lazily, :data:`YIELD_CHUNK` at a time,
   so the band is never held as a list of tuples.

Degenerate weight distributions (e.g. every pair at the same distance)
collapse into a single band and temporarily buffer that band's pairs — the
buffer budget is a target, not a hard cap.  See ``docs/PERFORMANCE.md`` for
the measured memory trajectory.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import EmptyMetricError, InvalidWeightError, MetricAxiomError
from repro.graph.weighted_graph import canonical_order, repr_ranks
from repro.metric.base import FiniteMetric, Point

#: ``(u, v, weight)`` triples, oriented with ``u`` before ``v`` in point order.
PairTriple = tuple[Point, Point, float]

#: Soft cap on pairs buffered at once; the effective budget also scales with n.
DEFAULT_BUFFER_PAIRS = 65536

#: Number of histogram buckets used to choose band boundaries.
HISTOGRAM_BUCKETS = 2048

#: Sorted pairs converted to Python triples at a time.
YIELD_CHUNK = 4096


def effective_buffer_pairs(n: int, max_buffer: Optional[int] = None) -> int:
    """Return the pair-buffer budget for an ``n``-point metric.

    The default grows linearly in ``n`` (so peak memory stays ``O(n)`` while
    the number of band sweeps stays bounded) with a floor that keeps small
    instances single-band and sweep-free.
    """
    if max_buffer is not None:
        return max(1, int(max_buffer))
    return max(DEFAULT_BUFFER_PAIRS, 32 * n)


def _block_row_count(n: int) -> int:
    """Rows per vectorized block: bounds the block matrix to ~512k floats (4 MiB)."""
    return max(1, min(n, 524_288 // max(n, 1)))


def _validate_row(points: Sequence[Point], i: int, row: np.ndarray) -> None:
    """Raise as ``complete_graph`` would on a non-positive or non-finite distance."""
    if float(row.min()) <= 0.0:
        offset = int(np.argmin(row))
        raise MetricAxiomError(
            f"distinct points {points[i]!r}, {points[i + 1 + offset]!r} "
            f"at non-positive distance {float(row[offset])}"
        )
    if not np.isfinite(row).all():
        offset = int(np.nonzero(~np.isfinite(row))[0][0])
        raise InvalidWeightError(
            f"edge weight must be finite, got {float(row[offset])}"
        )


def _iter_rows(
    metric: FiniteMetric, *, validate: bool = False
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, weights)`` per point, ``weights[k] = δ(points[i], points[i+1+k])``.

    Rows come in point order, so concatenating them reproduces the
    ``FiniteMetric.pairs()`` generation order.  Peak memory is one row block.
    With ``validate``, a non-positive distance between distinct points raises
    :class:`MetricAxiomError`, mirroring ``complete_graph``.
    """
    points = metric.point_tuple
    n = len(points)
    if hasattr(metric, "block_distances"):
        block_rows = _block_row_count(n)
        for start in range(0, n - 1, block_rows):
            stop = min(start + block_rows, n)
            matrix = metric.block_distances(start, stop)
            for i in range(start, stop):
                row = matrix[i - start, i + 1 :]
                if validate and row.size:
                    _validate_row(points, i, row)
                yield i, row
    else:
        distance = metric.distance
        for i in range(n - 1):
            u = points[i]
            row = np.fromiter(
                (distance(u, points[j]) for j in range(i + 1, n)),
                dtype=float,
                count=n - 1 - i,
            )
            if validate and row.size:
                _validate_row(points, i, row)
            yield i, row


def iter_pairs(metric: FiniteMetric, *, validate: bool = True) -> Iterator[PairTriple]:
    """Yield all pairs of ``metric`` with weights, in generation (unsorted) order.

    This is the lazy, chunk-computed equivalent of iterating the edges of
    ``metric.complete_graph()``: same triples, same order, ``O(n)`` peak
    memory.  Used by :class:`~repro.metric.closure.MetricClosure` for its
    ``edges()`` view.
    """
    points = metric.point_tuple
    for i, row in _iter_rows(metric, validate=validate):
        u = points[i]
        base = i + 1
        for offset, weight in enumerate(row.tolist()):
            yield (u, points[base + offset], weight)


def _weight_extremes(metric: FiniteMetric) -> tuple[float, float]:
    """Sweep all pairs once, returning (min, max) weight; validates positivity."""
    low = np.inf
    high = -np.inf
    for _, row in _iter_rows(metric, validate=True):
        if not row.size:
            continue
        row_low = float(row.min())
        row_high = float(row.max())
        if row_low < low:
            low = row_low
        if row_high > high:
            high = row_high
    return float(low), float(high)


def _band_boundaries(metric: FiniteMetric, buffer_pairs: int) -> list[tuple[float, float]]:
    """Partition the weight axis into half-open bands of ~``buffer_pairs`` pairs.

    One sweep finds the weight extremes (and validates positivity), a second
    histograms the weights over :data:`HISTOGRAM_BUCKETS` equal-width
    buckets; consecutive buckets are grouped greedily until a group's pair
    count would exceed the budget.  The first band opens at ``-inf`` and the
    last closes at ``+inf`` so float rounding at the extremes cannot drop a
    pair.  Band filtering uses plain comparisons on the bucket edges, so the
    histogram only shapes band *sizes*, never correctness.
    """
    low, high = _weight_extremes(metric)
    if not high > low:
        # All weights equal (or a single pair): one band carries everything.
        return [(-np.inf, np.inf)]
    edges = np.linspace(low, high, HISTOGRAM_BUCKETS + 1)
    counts = np.zeros(HISTOGRAM_BUCKETS, dtype=np.int64)
    for _, row in _iter_rows(metric):
        if row.size:
            hist, _ = np.histogram(row, bins=edges)
            counts += hist

    bands: list[tuple[float, float]] = []
    band_start = 0
    accumulated = 0
    for bucket in range(HISTOGRAM_BUCKETS):
        if accumulated and accumulated + int(counts[bucket]) > buffer_pairs:
            bands.append((float(edges[band_start]), float(edges[bucket])))
            band_start = bucket
            accumulated = 0
        accumulated += int(counts[bucket])
    bands.append((float(edges[band_start]), np.inf))
    bands[0] = (-np.inf, bands[0][1])
    return bands


def _band_arrays(
    metric: FiniteMetric, low: float, high: float, *, validate: bool
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Gather the pairs with ``low <= weight < high`` as ``(rows, cols, weights)``.

    The arrays list the pairs in generation order; ``None`` if none fall in
    the band.
    """
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for i, row in _iter_rows(metric, validate=validate):
        offsets = np.flatnonzero((row >= low) & (row < high))
        if not offsets.size:
            continue
        rows.append(np.full(offsets.size, i, dtype=np.int32))
        cols.append((offsets + (i + 1)).astype(np.int32))
        weights.append(row[offsets])
    if not rows:
        return None
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)


def sorted_pair_stream(
    metric: FiniteMetric,
    *,
    max_buffer: Optional[int] = None,
) -> Iterator[PairTriple]:
    """Yield all pairs of ``metric`` in the exact ``edges_sorted_by_weight`` order.

    The output triples ``(u, v, weight)`` are byte-identical — same floats,
    same order — to ``metric.complete_graph().edges_sorted_by_weight()``, so
    any consumer of the materialized list (the greedy loop, Kruskal) can
    consume the stream instead.  Peak memory is ``O(buffer + n)`` pairs
    instead of ``Θ(n²)``; see the module docstring for the banding scheme and
    the order-preservation argument.

    Parameters
    ----------
    metric:
        The metric space.  Raises :class:`EmptyMetricError` when empty and
        :class:`MetricAxiomError` on a non-positive interpoint distance, as
        ``complete_graph`` does.
    max_buffer:
        Soft cap on pairs buffered at once (default ``max(65536, 32·n)``).
        Smaller values lower peak memory at the cost of extra recomputation
        sweeps; tests use tiny values to force multi-band runs.
    """
    n = len(metric.point_tuple)
    if n == 0:
        raise EmptyMetricError("cannot stream the pairs of an empty metric")
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return
    buffer_pairs = effective_buffer_pairs(n, max_buffer)

    if total_pairs <= buffer_pairs:
        bands = [(-np.inf, np.inf)]
        validate_in_band = True  # the band sweep is the only pass over the pairs
    else:
        bands = _band_boundaries(metric, buffer_pairs)
        validate_in_band = False  # the extremes sweep already validated

    points = metric.point_tuple
    ranks = repr_ranks(points)
    for low, high in bands:
        band = _band_arrays(metric, low, high, validate=validate_in_band)
        if band is None:
            continue
        rows, cols, weights = band
        order = canonical_order(rows, cols, weights, ranks)
        for start in range(0, order.size, YIELD_CHUNK):
            chunk = order[start : start + YIELD_CHUNK]
            yield from zip(
                map(points.__getitem__, rows[chunk].tolist()),
                map(points.__getitem__, cols[chunk].tolist()),
                weights[chunk].tolist(),
            )


def edge_bands(
    edges: "Iterator[PairTriple] | Sequence[PairTriple]", band_size: int
) -> Iterator[list[PairTriple]]:
    """Chunk a canonical sorted edge stream into contiguous weight bands.

    Yields lists of at least ``band_size`` edges, extending each band until
    the weight strictly increases so a tie plateau is never split across two
    bands.  The partition is a pure function of ``(edges, band_size)``, which
    is what lets the band spanner builder (:mod:`repro.core.parallel_greedy`)
    filter each band against the spanner as it stood before the band and
    still produce byte-identical results for every band count.  The stream
    is consumed lazily: only the current band is ever held in memory, so
    metric workloads keep the O(n + band) footprint of
    :func:`sorted_pair_stream`.
    """
    if band_size < 1:
        raise ValueError(f"band_size must be positive, got {band_size}")
    iterator = iter(edges)
    band: list[PairTriple] = []
    for triple in iterator:
        if len(band) >= band_size and triple[2] > band[-1][2]:
            yield band
            band = [triple]
        else:
            band.append(triple)
    if band:
        yield band
