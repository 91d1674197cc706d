"""Unit tests for the streaming sorted-pair pipeline (repro.metric.stream).

The pipeline's contract is byte-identity with the materialized path:
``list(sorted_pair_stream(m))`` must equal
``m.complete_graph().edges_sorted_by_weight()`` — same triples, same floats,
same order — on every metric, including forced multi-band (tiny buffer) runs
and tie-heavy weight distributions.  Both sides sort with the same rank
lexsort, so the tie-heavy cases also compare the stream against the plain
``(weight, repr(u), repr(v))`` sort of :mod:`oracles.order`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles.metric import stream_is_order_identical
from oracles.order import canonical_sorted, pair_sort_key

from repro.errors import EmptyMetricError, MetricAxiomError
from repro.metric.base import ExplicitMetric
from repro.metric.euclidean import EuclideanMetric
from repro.metric.generators import star_metric, uniform_points
from repro.metric.stream import (
    DEFAULT_BUFFER_PAIRS,
    effective_buffer_pairs,
    iter_pairs,
    sorted_pair_stream,
)


@pytest.fixture
def grid_metric() -> EuclideanMetric:
    """A 6x6 integer grid: many exactly-equal interpoint distances."""
    points = [(float(i), float(j)) for i in range(6) for j in range(6)]
    return EuclideanMetric(np.array(points))


class TestOrderIdentity:
    def test_euclidean_single_band(self, small_points):
        assert stream_is_order_identical(small_points)

    def test_euclidean_forced_multi_band(self, small_points):
        assert stream_is_order_identical(small_points, max_buffer=13)

    def test_tie_heavy_grid(self, grid_metric):
        reference = canonical_sorted(grid_metric.complete_graph().edges())
        for max_buffer in (None, 200, 50, 7, 1):
            assert stream_is_order_identical(grid_metric, max_buffer=max_buffer)
            assert list(sorted_pair_stream(grid_metric, max_buffer=max_buffer)) == reference

    def test_all_weights_equal_degenerate_band(self):
        metric = star_metric(10)
        assert stream_is_order_identical(metric)
        # Every leaf pair is at distance 2: the histogram cannot split the
        # weight axis, so everything collapses into one band.
        assert stream_is_order_identical(metric, max_buffer=2)

    def test_explicit_metric(self):
        metric = ExplicitMetric.from_matrix(
            [
                [0.0, 2.0, 2.0, 3.0],
                [2.0, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 2.0],
                [3.0, 2.0, 2.0, 0.0],
            ]
        )
        assert stream_is_order_identical(metric)
        assert stream_is_order_identical(metric, max_buffer=1)
        # 12 points at distances in {10, 11, 12} (entries in [c, 2c] always
        # form a metric): most pairs tie, and by repr the id 10 sorts before 2.
        points = list(range(12))
        distances = {
            (i, j): float(10 + (i * 7 + j * 3) % 3) for i in points for j in points if i < j
        }
        ties = ExplicitMetric(points, distances)
        reference = canonical_sorted(ties.complete_graph().edges())
        for max_buffer in (None, 20, 3, 1):
            assert stream_is_order_identical(ties, max_buffer=max_buffer)
            assert list(sorted_pair_stream(ties, max_buffer=max_buffer)) == reference

    def test_buffer_of_one_pair(self, small_points):
        # One pair per band is the most adversarial banding possible.
        tiny = EuclideanMetric(small_points.coordinates[:8])
        assert stream_is_order_identical(tiny, max_buffer=1)

    def test_stream_is_sorted_by_canonical_key(self, small_points):
        triples = list(sorted_pair_stream(small_points, max_buffer=9))
        keys = [pair_sort_key(t) for t in triples]
        assert keys == sorted(keys)

    def test_stream_weights_match_scalar_distance(self, small_points):
        for u, v, weight in sorted_pair_stream(small_points):
            assert weight == small_points.distance(u, v)  # bitwise, no approx


class TestIterPairs:
    def test_generation_order_matches_pairs(self, small_points):
        generated = [(u, v) for u, v, _ in iter_pairs(small_points)]
        assert generated == list(small_points.pairs())

    def test_pair_count(self, grid_metric):
        n = grid_metric.size
        assert sum(1 for _ in iter_pairs(grid_metric)) == n * (n - 1) // 2


class TestValidation:
    def test_empty_metric_raises(self):
        metric = ExplicitMetric([], {})
        with pytest.raises(EmptyMetricError):
            list(sorted_pair_stream(metric))

    def test_single_point_yields_nothing(self):
        metric = ExplicitMetric(["a"], {})
        assert list(sorted_pair_stream(metric)) == []

    def test_zero_distance_raises_like_complete_graph(self):
        metric = ExplicitMetric(["a", "b"], {("a", "b"): 0.0})
        with pytest.raises(MetricAxiomError):
            list(sorted_pair_stream(metric))
        with pytest.raises(MetricAxiomError):
            metric.complete_graph()

    def test_zero_distance_raises_in_banded_mode(self):
        points = list(range(12))
        distances = {(i, j): 1.0 + i + j for i in points for j in points if i < j}
        distances[(5, 7)] = -1.0
        metric = ExplicitMetric(points, distances)
        with pytest.raises(MetricAxiomError):
            list(sorted_pair_stream(metric, max_buffer=3))


class TestBufferPolicy:
    def test_default_floor(self):
        assert effective_buffer_pairs(10) == DEFAULT_BUFFER_PAIRS

    def test_default_scales_linearly(self):
        assert effective_buffer_pairs(10_000) == 320_000

    def test_explicit_override(self):
        assert effective_buffer_pairs(10_000, max_buffer=50) == 50
        assert effective_buffer_pairs(10, max_buffer=0) == 1

    def test_large_instance_stays_within_buffer_sized_bands(self):
        # n=120 -> 7140 pairs; buffer 500 forces ~15 bands.  The stream must
        # still be exactly the materialized order.
        metric = uniform_points(120, 2, seed=11)
        assert stream_is_order_identical(metric, max_buffer=500)


class TestEuclideanKernel:
    def test_block_distances_match_scalar(self, small_points):
        n = small_points.size
        block = small_points.block_distances(0, n)
        for i in range(n):
            for j in range(n):
                assert block[i, j] == small_points.distance(i, j)

    def test_distances_from_matches_scalar(self, small_points):
        row = small_points.distances_from(3)
        for j in range(small_points.size):
            assert row[j] == small_points.distance(3, j)

    def test_pairwise_matrix_symmetric_zero_diagonal(self, small_points):
        matrix = small_points.pairwise_distance_matrix()
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)
        assert math.isclose(
            float(matrix[0, 1]), small_points.distance(0, 1), rel_tol=0.0, abs_tol=0.0
        )
