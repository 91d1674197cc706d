"""Unit tests for the net-tree bounded-degree spanner (Theorem 2 substrate)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidStretchError
from repro.metric.generators import circle_points, line_points, uniform_points
from repro.spanners.bounded_degree import bounded_degree_spanner, theoretical_degree_bound


class TestConstruction:
    @pytest.mark.parametrize("epsilon", [0.3, 0.5, 0.9])
    def test_stretch_guarantee_on_uniform_points(self, small_points, epsilon):
        spanner = bounded_degree_spanner(small_points, epsilon)
        assert spanner.is_valid()

    def test_stretch_guarantee_on_line(self):
        metric = line_points(25, spacing=1.0)
        assert bounded_degree_spanner(metric, 0.5).is_valid()

    def test_stretch_guarantee_on_circle(self):
        metric = circle_points(30)
        assert bounded_degree_spanner(metric, 0.4).is_valid()

    def test_invalid_epsilon(self, small_points):
        with pytest.raises(InvalidStretchError):
            bounded_degree_spanner(small_points, 0.0)
        with pytest.raises(InvalidStretchError):
            bounded_degree_spanner(small_points, 1.5)

    def test_metadata(self, small_points):
        spanner = bounded_degree_spanner(small_points, 0.5)
        assert spanner.metadata["levels"] >= 2
        assert spanner.metadata["gamma"] == pytest.approx(4.5 + 32.0)
        assert spanner.algorithm == "net-tree-bounded-degree"

    def test_sparser_than_complete_graph_on_larger_instances(self):
        metric = uniform_points(150, 2, seed=7)
        spanner = bounded_degree_spanner(metric, 0.9)
        n = metric.size
        assert spanner.number_of_edges < n * (n - 1) // 2

    def test_spot_check_helper(self, small_points):
        spanner = bounded_degree_spanner(small_points, 0.5)
        assert spanner.is_valid()


class TestDegreeBound:
    def test_theoretical_bound_monotone(self):
        assert theoretical_degree_bound(0.1, 2) > theoretical_degree_bound(0.5, 2)
        assert theoretical_degree_bound(0.5, 3) > theoretical_degree_bound(0.5, 2)

    def test_theoretical_bound_invalid_epsilon(self):
        with pytest.raises(InvalidStretchError):
            theoretical_degree_bound(1.2, 2)

    def test_degree_grows_sublinearly_on_the_line(self):
        """The naive net-tree degree is governed by the packing bound per level,
        not by n: as n grows, the degree/n ratio must shrink (the greedy spanner
        on the star metric, by contrast, has degree exactly n-1)."""
        ratios = []
        for n in (20, 80, 160):
            metric = line_points(n, spacing=1.0)
            degree = bounded_degree_spanner(metric, 0.5).max_degree
            ratios.append(degree / n)
        assert ratios[-1] < ratios[0]
        assert ratios[-1] <= 0.6
