"""Unit tests for the Baswana–Sen baseline spanner."""

from __future__ import annotations

import math

import pytest

from repro.errors import InvalidStretchError
from repro.graph.generators import (
    complete_graph,
    grid_graph,
    random_connected_graph,
)
from repro.graph.shortest_paths import pair_distance
from repro.graph.traversal import is_connected
from repro.spanners.baswana_sen import baswana_sen_spanner, expected_size_bound
from repro.spanners.verification import verify_spanner_edges_detailed


class TestBasics:
    def test_k1_returns_whole_graph(self, small_random_graph):
        spanner = baswana_sen_spanner(small_random_graph, 1, seed=0)
        assert spanner.number_of_edges == small_random_graph.number_of_edges
        assert spanner.stretch == 1.0

    def test_invalid_k(self, small_random_graph):
        with pytest.raises(InvalidStretchError):
            baswana_sen_spanner(small_random_graph, 0)

    def test_subgraph_of_input(self, medium_random_graph):
        spanner = baswana_sen_spanner(medium_random_graph, 2, seed=1)
        assert spanner.subgraph.is_subgraph_of(medium_random_graph)

    def test_stretch_bound_recorded(self, small_random_graph):
        assert baswana_sen_spanner(small_random_graph, 3, seed=2).stretch == 5.0

    def test_reproducible_with_seed(self, medium_random_graph):
        first = baswana_sen_spanner(medium_random_graph, 2, seed=7)
        second = baswana_sen_spanner(medium_random_graph, 2, seed=7)
        assert first.subgraph.same_edges(second.subgraph)

    def test_metadata(self, small_random_graph):
        spanner = baswana_sen_spanner(small_random_graph, 2, seed=3)
        assert spanner.metadata["k"] == 2.0
        assert spanner.metadata["expected_size_bound"] == pytest.approx(
            expected_size_bound(small_random_graph.number_of_vertices, 2)
        )


class TestSpannerQuality:
    @pytest.mark.parametrize("k", [2, 3])
    def test_unweighted_stretch_guarantee(self, k):
        """On unit-weight graphs the classic (2k-1) hop argument applies directly."""
        graph = grid_graph(6, 6)
        spanner = baswana_sen_spanner(graph, k, seed=11)
        t = 2 * k - 1
        for u, v, weight in graph.edges():
            assert pair_distance(spanner.subgraph, u, v) <= t * weight + 1e-9

    def test_connected_output_on_connected_input(self, medium_random_graph):
        spanner = baswana_sen_spanner(medium_random_graph, 2, seed=5)
        assert is_connected(spanner.subgraph)

    def test_weighted_stretch_within_bound_on_random_graph(self, medium_random_graph):
        spanner = baswana_sen_spanner(medium_random_graph, 2, seed=6)
        # Measured stretch on the workload should respect the 2k-1 bound.
        report = verify_spanner_edges_detailed(spanner.subgraph, medium_random_graph, math.inf)
        assert report.max_stretch <= 3.0 + 1e-6

    def test_sparsifies_dense_graphs(self):
        graph = complete_graph(60, random_weights=True, seed=8)
        spanner = baswana_sen_spanner(graph, 2, seed=8)
        assert spanner.number_of_edges < graph.number_of_edges / 2

    def test_size_within_small_factor_of_expected_bound(self):
        graph = complete_graph(80, random_weights=True, seed=9)
        spanner = baswana_sen_spanner(graph, 2, seed=9)
        # The bound is in expectation; allow a factor-3 cushion for variance.
        assert spanner.number_of_edges <= 3 * expected_size_bound(80, 2)


class TestBoundHelper:
    def test_expected_size_bound_values(self):
        assert expected_size_bound(100, 2) == pytest.approx(2 * 100 ** 1.5)
        with pytest.raises(InvalidStretchError):
            expected_size_bound(100, 0)
