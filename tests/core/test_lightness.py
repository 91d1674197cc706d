"""Unit tests for lightness accounting and the quoted theoretical bounds."""

from __future__ import annotations

import math

import pytest
from oracles.spanner import excess_weight_over_mst, mst_fraction_of_spanner

from repro.core.greedy import greedy_spanner
from repro.core.lightness import (
    althofer_size_bound,
    chechik_wulffnilsen_lightness_bound,
    erdos_girth_size_lower_bound,
    gottlieb_lightness_bound,
    lightness,
    normalized_size,
    smid_doubling_lightness_bound,
)
from repro.graph.generators import path_graph, random_connected_graph
from repro.graph.mst import kruskal_mst
from repro.spanners.trivial import mst_spanner


class TestMeasures:
    def test_lightness_of_mst_is_one(self, small_random_graph):
        tree = kruskal_mst(small_random_graph)
        assert lightness(tree, small_random_graph) == pytest.approx(1.0)

    def test_lightness_of_whole_graph(self, small_random_graph):
        value = lightness(small_random_graph, small_random_graph)
        assert value >= 1.0

    def test_normalized_size(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        expected = spanner.number_of_edges / small_random_graph.number_of_vertices
        assert normalized_size(spanner.subgraph) == pytest.approx(expected)

    def test_normalized_size_empty_graph(self):
        from repro.graph.weighted_graph import WeightedGraph

        assert normalized_size(WeightedGraph()) == 0.0

    def test_excess_weight_non_negative_for_spanners(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        assert excess_weight_over_mst(spanner.subgraph, small_random_graph) >= -1e-9

    def test_mst_fraction_is_one_for_mst(self, small_random_graph):
        assert mst_fraction_of_spanner(mst_spanner(small_random_graph)) == pytest.approx(1.0)

    def test_mst_fraction_between_zero_and_one(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 1.5)
        fraction = mst_fraction_of_spanner(spanner)
        assert 0.0 < fraction <= 1.0


class TestBounds:
    def test_althofer_monotone_in_k(self):
        assert althofer_size_bound(1000, 2) > althofer_size_bound(1000, 3)
        assert althofer_size_bound(1000, 10) >= 1000.0

    def test_althofer_k1_is_quadratic(self):
        assert althofer_size_bound(100, 1) == pytest.approx(100.0 ** 2)

    def test_althofer_invalid_k(self):
        with pytest.raises(ValueError):
            althofer_size_bound(10, 0)

    def test_erdos_lower_bound_matches_upper_shape(self):
        assert erdos_girth_size_lower_bound(500, 3) == althofer_size_bound(500, 3)

    def test_cw_bound_decreases_with_k(self):
        assert chechik_wulffnilsen_lightness_bound(
            10_000, 2, 0.5
        ) > chechik_wulffnilsen_lightness_bound(10_000, 4, 0.5)

    def test_cw_bound_blows_up_for_small_epsilon(self):
        assert chechik_wulffnilsen_lightness_bound(
            100, 2, 0.01
        ) > chechik_wulffnilsen_lightness_bound(100, 2, 0.5)

    def test_cw_bound_invalid_parameters(self):
        with pytest.raises(ValueError):
            chechik_wulffnilsen_lightness_bound(100, 0, 0.5)
        with pytest.raises(ValueError):
            chechik_wulffnilsen_lightness_bound(100, 2, 1.5)

    def test_smid_bound_is_log_n(self):
        assert smid_doubling_lightness_bound(1024, 0.5, 2) == pytest.approx(10.0)
        assert smid_doubling_lightness_bound(1, 0.5, 2) == 1.0

    def test_gottlieb_bound_independent_of_n(self):
        assert gottlieb_lightness_bound(0.25, 2.0) == gottlieb_lightness_bound(0.25, 2.0)
        assert gottlieb_lightness_bound(0.1, 2.0) > gottlieb_lightness_bound(0.4, 2.0)

    def test_gottlieb_bound_invalid_epsilon(self):
        with pytest.raises(ValueError):
            gottlieb_lightness_bound(0.7, 2.0)


class TestBoundsAgainstMeasurements:
    def test_greedy_size_below_althofer_bound(self):
        """The measured greedy (2k-1)-spanner size stays under the n^{1+1/k} curve."""
        for k in (2, 3):
            graph = random_connected_graph(80, 0.4, seed=k)
            spanner = greedy_spanner(graph, float(2 * k - 1))
            assert spanner.number_of_edges <= althofer_size_bound(80, k)

    def test_path_graph_lightness_is_one_for_any_stretch(self):
        graph = path_graph(20)
        spanner = greedy_spanner(graph, 5.0)
        assert lightness(spanner.subgraph, graph) == pytest.approx(1.0)
