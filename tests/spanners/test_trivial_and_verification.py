"""Unit tests for the trivial baselines and the stretch verification helpers."""

from __future__ import annotations

import math

import pytest
from oracles.spanner import shortest_path_tree_spanner

from repro.core.greedy import greedy_spanner
from repro.graph.generators import path_graph, random_connected_graph
from repro.graph.mst import kruskal_mst
from repro.spanners.trivial import complete_metric_spanner, identity_spanner, mst_spanner
from repro.errors import InvalidStretchError, VertexNotFoundError
from repro.graph.weighted_graph import WeightedGraph
from repro.spanners.verification import (
    stretch_profile,
    verify_spanner_edges,
    verify_spanner_edges_detailed,
)


class TestTrivialSpanners:
    def test_mst_spanner_properties(self, small_random_graph):
        spanner = mst_spanner(small_random_graph)
        assert spanner.number_of_edges == small_random_graph.number_of_vertices - 1
        assert spanner.lightness() == pytest.approx(1.0)
        assert spanner.is_valid()  # stretch bound n-1 always holds for an MST

    def test_identity_spanner(self, small_random_graph):
        spanner = identity_spanner(small_random_graph)
        assert spanner.number_of_edges == small_random_graph.number_of_edges
        assert spanner.stretch == 1.0
        assert spanner.is_valid()

    def test_complete_metric_spanner(self, small_points):
        spanner = complete_metric_spanner(small_points)
        n = small_points.size
        assert spanner.number_of_edges == n * (n - 1) // 2
        assert spanner.is_valid()

    def test_shortest_path_tree(self, medium_random_graph):
        root = next(iter(medium_random_graph.vertices()))
        spanner = shortest_path_tree_spanner(medium_random_graph, root)
        assert spanner.number_of_edges == medium_random_graph.number_of_vertices - 1
        # Distances from the root are preserved exactly.
        from repro.graph.shortest_paths import single_source_distances

        original = single_source_distances(medium_random_graph, root)
        in_tree = single_source_distances(spanner.subgraph, root)
        for vertex, distance in original.items():
            assert in_tree[vertex] == pytest.approx(distance)

    def test_shortest_path_tree_default_root(self, small_random_graph):
        spanner = shortest_path_tree_spanner(small_random_graph)
        assert spanner.number_of_edges == small_random_graph.number_of_vertices - 1


class TestVerificationHelpers:
    def test_verify_spanner_edges_accepts_valid(self, medium_random_graph):
        spanner = greedy_spanner(medium_random_graph, 2.0)
        assert verify_spanner_edges(spanner.subgraph, medium_random_graph, 2.0)

    def test_verify_spanner_edges_rejects_invalid(self, medium_random_graph):
        mst = kruskal_mst(medium_random_graph)
        assert not verify_spanner_edges(mst, medium_random_graph, 1.05)

    def test_nan_stretch_raises_before_any_search(self):
        """Every ``d > t·w`` test is false for a NaN stretch, so without the
        check the empty subgraph of a path passed with ``max_stretch`` inf."""
        base = path_graph(3)
        with pytest.raises(InvalidStretchError):
            verify_spanner_edges_detailed(base.empty_spanning_subgraph(), base, math.nan)
        with pytest.raises(InvalidStretchError):
            verify_spanner_edges(base.copy(), base, math.nan)

    def test_subgraph_vertex_missing_from_base_raises(self):
        base = path_graph(3)
        extra_edge = WeightedGraph(edges=[(0, 5, 1.0)])
        isolated = WeightedGraph(vertices=[0, 1, 2, "x"])
        for subgraph, missing in ((extra_edge, 5), (isolated, "x")):
            with pytest.raises(VertexNotFoundError) as excinfo:
                verify_spanner_edges(subgraph, base, 2.0)
            assert excinfo.value.vertex == missing

    def test_stretch_profile_exact(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        profile, _ = stretch_profile(spanner)
        assert profile.pairs_checked > 0
        assert 1.0 <= profile.mean_stretch <= profile.max_stretch <= 2.0 + 1e-9
        assert 0.0 <= profile.fraction_at_stretch_one <= 1.0

    def test_stretch_profile_unknown_source_raises(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        with pytest.raises(VertexNotFoundError) as excinfo:
            stretch_profile(spanner, sources=[0, "nope"])
        assert excinfo.value.vertex == "nope"

    def test_stretch_profile_identity_graph_all_ones(self, small_random_graph):
        spanner = identity_spanner(small_random_graph)
        profile, _ = stretch_profile(spanner)
        assert profile.max_stretch == pytest.approx(1.0)
        assert profile.fraction_at_stretch_one == pytest.approx(1.0)

    def test_profile_as_row(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        row = stretch_profile(spanner)[0].as_row()
        assert set(row) == {
            "pairs_checked",
            "max_stretch",
            "mean_stretch",
            "fraction_at_stretch_one",
        }
