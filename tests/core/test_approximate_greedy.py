"""Unit tests for Algorithm Approximate-Greedy (Section 5)."""

from __future__ import annotations

import pytest
from oracles.cluster import ReplayClusterGraph, VerifyingClusterGraph

import repro.core.approximate_greedy
from repro.core.approximate_greedy import (
    approximate_greedy_spanner,
    derive_parameters,
)
from repro.core.greedy import greedy_spanner_of_metric
from repro.errors import InvalidStretchError
from repro.metric.generators import clustered_points, line_points, uniform_points


class TestParameterDerivation:
    def test_stretch_split_multiplies_to_target(self):
        params = derive_parameters(0.5, 100)
        assert params.base_stretch * params.simulation_stretch == pytest.approx(1.5)
        assert 1.0 < params.base_stretch < params.simulation_stretch < 1.5

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(InvalidStretchError):
            derive_parameters(0.0, 10)
        with pytest.raises(InvalidStretchError):
            derive_parameters(1.5, 10)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            derive_parameters(0.5, 0)

    def test_bucket_ratio_override(self):
        params = derive_parameters(0.5, 100, bucket_ratio=3.0)
        assert params.bucket_ratio == 3.0

    def test_default_bucket_ratio_grows_with_n(self):
        small = derive_parameters(0.5, 16)
        large = derive_parameters(0.5, 4096)
        assert large.bucket_ratio > small.bucket_ratio


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
        spanner = approximate_greedy_spanner(small_points, 0.5)
        metadata = spanner.metadata
        assert metadata["light_edges"] + metadata["heavy_edges"] == metadata["base_edges"]
        assert metadata["edges_added_by_simulation"] <= metadata["heavy_edges"]
        assert metadata["buckets"] >= 1
        # Every bucket is served by exactly one cluster refresh: the initial
        # build plus, per transition, a merge or a recorded skip.
        refreshes = (
            metadata["cluster_rebuilds"]
            + metadata["cluster_merges"]
            + metadata["cluster_skipped_transitions"]
        )
        assert refreshes == metadata["buckets"]
        assert metadata["cluster_transitions"] == metadata["buckets"] - 1

    def test_incremental_is_default_and_merges(self, small_points):
        spanner = approximate_greedy_spanner(small_points, 0.5, bucket_ratio=2.0)
        metadata = spanner.metadata
        assert metadata["cluster_rebuilds"] == 1.0
        if metadata["buckets"] > 1:
            assert (
                metadata["cluster_merges"] + metadata["cluster_skipped_transitions"]
                == metadata["buckets"] - 1
            )

    def test_from_scratch_mode_rebuilds_each_bucket(self, small_points, monkeypatch):
        """The replay oracle recomputes every level: no merges, one rebuild
        (or recorded skip) per bucket."""
        monkeypatch.setattr(repro.core.approximate_greedy, "ClusterGraph", ReplayClusterGraph)
        spanner = approximate_greedy_spanner(small_points, 0.5, bucket_ratio=2.0)
        metadata = spanner.metadata
        assert spanner.is_valid()
        assert metadata["cluster_merges"] == 0.0
        assert (
            metadata["cluster_rebuilds"] + metadata["cluster_skipped_transitions"]
            == metadata["buckets"]
        )

    def test_modes_produce_identical_edge_sets(
        self, small_points, clustered_metric, monkeypatch
    ):
        for metric in (small_points, clustered_metric):
            with monkeypatch.context() as patch:
                patch.setattr(
                    repro.core.approximate_greedy, "ClusterGraph", VerifyingClusterGraph
                )
                incremental = approximate_greedy_spanner(metric, 0.5, bucket_ratio=2.0)
            with monkeypatch.context() as patch:
                patch.setattr(repro.core.approximate_greedy, "ClusterGraph", ReplayClusterGraph)
                replayed = approximate_greedy_spanner(metric, 0.5, bucket_ratio=2.0)
            assert incremental.subgraph.same_edges(replayed.subgraph)

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
        assert approx.metadata["approximate_queries"] < n * (n - 1) / 2
