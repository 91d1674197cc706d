"""Unit tests for the greedy spanner (Algorithm 1)."""

from __future__ import annotations

import math

import pytest

from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.errors import InvalidStretchError, UnknownOracleError
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
)
from repro.graph.mst import kruskal_mst
from repro.graph.shortest_paths import pair_distance
from repro.graph.weighted_graph import WeightedGraph


class TestBasicBehaviour:
    def test_invalid_stretch_rejected(self, triangle_graph):
        with pytest.raises(InvalidStretchError):
            greedy_spanner(triangle_graph, 0.5)

    def test_stretch_one_keeps_every_edge_of_euclidean_complete_graph(self, small_points):
        # With t=1 an edge is skipped only if an equally-short path exists; for
        # points in general position every multi-hop Euclidean path is strictly
        # longer than the direct edge, so the greedy 1-spanner is the complete graph.
        graph = small_points.complete_graph()
        spanner = greedy_spanner(graph, 1.0)
        assert spanner.number_of_edges == graph.number_of_edges

    def test_stretch_one_drops_non_metric_edges(self):
        # On a non-metric weighted graph, an edge heavier than some path between
        # its endpoints is dropped even at t=1.
        graph = complete_graph(8, random_weights=True, seed=1)
        spanner = greedy_spanner(graph, 1.0)
        assert spanner.number_of_edges < graph.number_of_edges
        assert spanner.is_valid()

    def test_tree_input_returns_tree(self):
        tree = path_graph(10, weight=2.0)
        spanner = greedy_spanner(tree, 3.0)
        assert spanner.subgraph.same_edges(tree)

    def test_triangle_heavy_edge_dropped(self, triangle_graph):
        # a-c has weight 4 and the detour a-b-c has weight 3 ≤ t*4 for t ≥ 0.75.
        spanner = greedy_spanner(triangle_graph, 1.0)
        assert not spanner.subgraph.has_edge("a", "c")
        assert spanner.number_of_edges == 2

    def test_triangle_kept_for_small_stretch_window(self):
        graph = WeightedGraph(edges=[("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.9)])
        # Detour weight 2.0 > 1.0 * 1.9, so the heavy edge must stay at t=1.
        spanner = greedy_spanner(graph, 1.0)
        assert spanner.subgraph.has_edge("a", "c")
        # At t = 1.1 the detour 2.0 ≤ 1.1 * 1.9 = 2.09, so it is dropped.
        spanner = greedy_spanner(graph, 1.1)
        assert not spanner.subgraph.has_edge("a", "c")

    def test_unit_cycle_spanner(self):
        graph = cycle_graph(9)
        # Removing any edge of the cycle creates a detour of length 8 > 3,
        # so the greedy 3-spanner keeps the whole cycle.
        spanner = greedy_spanner(graph, 3.0)
        assert spanner.number_of_edges == 9
        # With stretch 9 the last examined edge can be dropped.
        spanner = greedy_spanner(graph, 9.0)
        assert spanner.number_of_edges == 8

    def test_petersen_3_spanner_is_whole_graph(self, petersen):
        spanner = greedy_spanner(petersen, 3.0)
        assert spanner.subgraph.same_edges(petersen)

    def test_petersen_5_spanner_is_sparser(self, petersen):
        # Girth 5 means a 4-spanner must keep everything, but stretch ≥ 4
        # allows dropping edges (detours have 4 unit edges).
        spanner = greedy_spanner(petersen, 4.0)
        assert spanner.number_of_edges < petersen.number_of_edges

    def test_spanner_is_subgraph(self, medium_random_graph):
        spanner = greedy_spanner(medium_random_graph, 2.0)
        assert spanner.subgraph.is_subgraph_of(medium_random_graph)

    def test_stretch_guarantee(self, medium_random_graph):
        for t in (1.2, 2.0, 4.0):
            assert greedy_spanner(medium_random_graph, t).is_valid()

    def test_stretch_sweep_shrinks_spanner_on_this_workload(self, medium_random_graph):
        # Monotonicity in t is not a theorem (tiny counterexamples exist), but on
        # this fixed random workload the familiar trend holds and pins down the
        # behaviour users will see: larger stretch, (weakly) fewer edges.
        sizes = [
            greedy_spanner(medium_random_graph, t).number_of_edges
            for t in (1.0, 1.5, 2.0, 3.0, 5.0)
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] >= medium_random_graph.number_of_vertices - 1

    def test_deterministic_output(self, medium_random_graph):
        first = greedy_spanner(medium_random_graph, 2.0)
        second = greedy_spanner(medium_random_graph, 2.0)
        assert first.subgraph.same_edges(second.subgraph)

    def test_disconnected_graph_spanned_per_component(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (10, 11, 1.0)])
        spanner = greedy_spanner(graph, 2.0)
        assert spanner.subgraph.has_edge(10, 11)
        assert spanner.number_of_edges == 3


class TestInstrumentation:
    def test_metadata_counts(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        assert spanner.metadata["edges_examined"] == small_random_graph.number_of_edges
        assert spanner.metadata["edges_added"] == spanner.number_of_edges
        assert spanner.metadata["distance_queries"] == small_random_graph.number_of_edges
        assert spanner.metadata["dijkstra_settles"] > 0

    def test_oracle_choice_does_not_change_result(self, small_random_graph):
        bounded = greedy_spanner(small_random_graph, 2.5, oracle="bounded")
        cached = greedy_spanner(small_random_graph, 2.5, oracle="cached")
        assert bounded.subgraph.same_edges(cached.subgraph)

    def test_unknown_oracle_rejected(self, small_random_graph):
        with pytest.raises(ValueError):
            greedy_spanner(small_random_graph, 2.0, oracle="magic")
        # The deleted meet-in-the-middle oracle is an unknown name too.
        with pytest.raises(UnknownOracleError):
            greedy_spanner(small_random_graph, 2.0, oracle="bidirectional")

    def test_progress_callback_called_per_edge(self, small_random_graph):
        calls: list[tuple[int, int]] = []
        greedy_spanner(small_random_graph, 2.0, progress=lambda i, n: calls.append((i, n)))
        assert len(calls) == small_random_graph.number_of_edges
        assert calls[-1] == (small_random_graph.number_of_edges,) * 2


class TestStructuralProperties:
    def test_contains_mst(self, medium_random_graph):
        """Observation 2: the greedy spanner contains all edges of the tie-broken MST."""
        spanner = greedy_spanner(medium_random_graph, 3.0)
        mst = kruskal_mst(medium_random_graph)
        for u, v, _ in mst.edges():
            assert spanner.subgraph.has_edge(u, v)

    def test_rerun_on_own_output_is_identity(self, medium_random_graph):
        """Lemma 3 in algorithmic form."""
        spanner = greedy_spanner(medium_random_graph, 2.0)
        rerun = greedy_spanner(spanner.subgraph, spanner.stretch)
        assert rerun.subgraph.same_edges(spanner.subgraph)


class TestMetricGreedy:
    def test_metric_greedy_runs_on_complete_graph(self, small_points):
        spanner = greedy_spanner_of_metric(small_points, 1.5)
        n = small_points.size
        assert spanner.base.number_of_edges == n * (n - 1) // 2
        assert spanner.algorithm == "greedy-metric"

    def test_metric_greedy_stretch(self, small_points):
        spanner = greedy_spanner_of_metric(small_points, 1.2)
        assert spanner.is_valid()

    def test_metric_greedy_linear_size_for_constant_epsilon(self, medium_points):
        spanner = greedy_spanner_of_metric(medium_points, 1.5)
        n = medium_points.size
        # O(n) edges with a small constant for eps = 0.5 in the plane.
        assert spanner.number_of_edges <= 6 * n

    def test_metric_greedy_connected(self, small_points):
        spanner = greedy_spanner_of_metric(small_points, 2.0)
        for u in spanner.base.vertices():
            for v in spanner.base.vertices():
                assert math.isfinite(pair_distance(spanner.subgraph, u, v))
