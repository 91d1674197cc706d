"""Unit tests for Algorithm Approximate-Greedy (Section 5)."""

from __future__ import annotations

import math

import pytest

from repro.core.approximate_greedy import (
    approximate_greedy_spanner,
    derive_parameters,
)
from repro.core.greedy import greedy_spanner_of_metric
from repro.errors import InvalidStretchError
from repro.metric.generators import clustered_points, line_points, uniform_points


class TestParameterDerivation:
    def test_stretch_split_multiplies_to_target(self):
        params = derive_parameters(0.5)
        assert params.base_stretch * params.simulation_stretch == pytest.approx(1.5)
        assert 1.0 < params.base_stretch < params.simulation_stretch < 1.5

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(InvalidStretchError):
            derive_parameters(0.0)
        with pytest.raises(InvalidStretchError):
            derive_parameters(1.5)

    @pytest.mark.parametrize("epsilon", [0.05, 0.3, 0.5, 0.99])
    def test_split_uses_t_prime_half_epsilon(self, epsilon):
        """``t = 1 + ε`` and ``t' = 1 + ε/2``: the base and simulation
        stretches are ``√(t/t')`` and ``√(t·t')``."""
        params = derive_parameters(epsilon)
        t_prime = 1.0 + epsilon / 2.0
        assert params.t == 1.0 + epsilon
        assert params.base_stretch == pytest.approx(math.sqrt(params.t / t_prime))
        assert params.simulation_stretch == pytest.approx(math.sqrt(params.t * t_prime))
        assert params.base_stretch * params.simulation_stretch <= params.t * (1.0 + 1e-12)
        assert 1.0 < params.base_stretch < params.simulation_stretch < params.t

    @pytest.mark.parametrize("epsilon", [-0.1, 0.0, 1.0, 1.5, math.nan])
    def test_epsilon_outside_open_unit_interval_rejected(self, epsilon):
        with pytest.raises(InvalidStretchError):
            derive_parameters(epsilon)


class TestNetTreeBase:
    @pytest.mark.parametrize("epsilon", [0.3, 0.5])
    def test_output_is_valid_spanner(self, small_points, epsilon):
        spanner = approximate_greedy_spanner(small_points, epsilon)
        assert spanner.stretch == pytest.approx(1.0 + epsilon)
        assert spanner.is_valid()

    def test_output_subset_of_base_plus_connectivity(self, small_points):
        spanner = approximate_greedy_spanner(small_points, 0.5)
        assert spanner.metadata["base_edges"] >= spanner.number_of_edges
        assert spanner.max_degree <= spanner.metadata["base_max_degree"]

    def test_metadata_accounting(self, small_points):
        """Greedy on ``G'`` examines every base edge once and keeps the output's edges."""
        spanner = approximate_greedy_spanner(small_points, 0.5)
        metadata = spanner.metadata
        assert metadata["edges_examined"] == metadata["base_edges"]
        assert metadata["distance_queries"] == metadata["base_edges"]
        assert metadata["edges_added"] == spanner.number_of_edges
        assert metadata["simulation_stretch"] == derive_parameters(0.5).simulation_stretch

    def test_works_on_line_metric(self):
        metric = line_points(30, spacing=1.0)
        spanner = approximate_greedy_spanner(metric, 0.4)
        assert spanner.is_valid()

    def test_works_on_clustered_points(self, clustered_metric):
        spanner = approximate_greedy_spanner(clustered_metric, 0.5)
        assert spanner.is_valid()

    def test_invalid_epsilon(self, small_points):
        with pytest.raises(InvalidStretchError):
            approximate_greedy_spanner(small_points, 2.0)

    @pytest.mark.parametrize("option", ["bucket_ratio", "cluster_radius_factor"])
    def test_cluster_graph_options_are_gone(self, small_points, option):
        """The greedy loop on ``G'`` has no buckets and no cluster radius."""
        with pytest.raises(TypeError):
            approximate_greedy_spanner(small_points, 0.5, **{option: 2.0})

    def test_unknown_base_rejected(self, small_points):
        with pytest.raises(ValueError):
            approximate_greedy_spanner(small_points, 0.5, base="mystery")


class TestThetaBase:
    def test_theta_base_valid_spanner(self, medium_points):
        spanner = approximate_greedy_spanner(medium_points, 0.5, base="theta")
        assert spanner.is_valid()

    def test_theta_base_sparser_base_graph(self, medium_points):
        theta = approximate_greedy_spanner(medium_points, 0.5, base="theta")
        net = approximate_greedy_spanner(medium_points, 0.5, base="net-tree")
        assert theta.metadata["base_edges"] <= net.metadata["base_edges"]

    def test_theta_base_requires_planar_euclidean(self):
        metric = line_points(10)  # 1-dimensional
        with pytest.raises(InvalidStretchError):
            approximate_greedy_spanner(metric, 0.5, base="theta")


@pytest.mark.parametrize("base", ["net-tree", "theta"])
class TestOutputShape:
    def test_base_is_the_metric_closure(self, small_points, base):
        """Stretch and lightness are measured against the metric, not ``G'``."""
        spanner = approximate_greedy_spanner(small_points, 0.5, base=base)
        n = small_points.size
        assert spanner.base.number_of_edges == n * (n - 1) // 2
        assert spanner.algorithm == "approximate-greedy"

    def test_deterministic(self, small_points, base):
        first = approximate_greedy_spanner(small_points, 0.5, base=base)
        second = approximate_greedy_spanner(small_points, 0.5, base=base)
        assert first.subgraph.same_edges(second.subgraph)
        assert first.metadata == second.metadata


class TestQualityVersusExactGreedy:
    def test_lightness_within_constant_of_exact(self, medium_points):
        """The Theorem 6 / Lemma 13 shape: approximate-greedy lightness is within
        a small constant factor of the exact greedy spanner's."""
        epsilon = 0.5
        exact = greedy_spanner_of_metric(medium_points, 1.0 + epsilon)
        approx = approximate_greedy_spanner(medium_points, epsilon, base="theta")
        assert approx.lightness() <= 3.0 * exact.lightness()

    def test_size_within_constant_of_exact(self, medium_points):
        epsilon = 0.5
        exact = greedy_spanner_of_metric(medium_points, 1.0 + epsilon)
        approx = approximate_greedy_spanner(medium_points, epsilon, base="theta")
        assert approx.number_of_edges <= 4 * exact.number_of_edges

    def test_fewer_distance_queries_than_exact_pair_count(self, medium_points):
        epsilon = 0.5
        n = medium_points.size
        approx = approximate_greedy_spanner(medium_points, epsilon, base="theta")
        assert approx.metadata["distance_queries"] < n * (n - 1) / 2
