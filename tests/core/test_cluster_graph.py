"""Unit tests for the cluster graph behind Approximate-Greedy."""

from __future__ import annotations

import itertools
import math

import pytest
from oracles.cluster import VerifyingClusterGraph

from repro.core.cluster_graph import ClusterGraph
from repro.core.greedy import greedy_spanner
from repro.graph.generators import grid_graph, path_graph, random_connected_graph
from repro.graph.shortest_paths import pair_distance


@pytest.fixture
def partial_spanner(medium_random_graph):
    """A partially built spanner (the greedy 3-spanner) to cluster over."""
    return greedy_spanner(medium_random_graph, 3.0).subgraph


class TestClustering:
    def test_every_vertex_assigned(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        assert set(clusters.centre_of) == set(partial_spanner.vertices())

    def test_offsets_within_radius(self, partial_spanner):
        radius = 3.0
        clusters = ClusterGraph(partial_spanner, radius=radius)
        for vertex, offset in clusters.offset_of.items():
            assert offset <= radius + 1e-9
            centre = clusters.centre_of[vertex]
            assert pair_distance(partial_spanner, centre, vertex) <= offset + 1e-9

    def test_zero_radius_gives_singleton_clusters(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=0.0)
        assert clusters.number_of_clusters == partial_spanner.number_of_vertices

    def test_huge_radius_gives_one_cluster_per_component(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=1e9)
        assert clusters.number_of_clusters == 1

    def test_larger_radius_fewer_clusters(self, partial_spanner):
        small = ClusterGraph(partial_spanner, radius=1.0)
        large = ClusterGraph(partial_spanner, radius=10.0)
        assert large.number_of_clusters <= small.number_of_clusters

    def test_rebuild_updates_radius(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=1.0)
        before = clusters.number_of_clusters
        clusters.rebuild(10.0)
        assert clusters.radius == 10.0
        assert clusters.number_of_clusters <= before
        assert clusters.rebuild_count == 2


class TestApproximateDistances:
    def test_never_underestimates(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        vertices = list(partial_spanner.vertices())
        pairs = list(itertools.islice(itertools.combinations(vertices, 2), 60))
        assert clusters.check_never_underestimates(pairs)

    def test_never_underestimates_on_grid(self):
        grid = grid_graph(6, 6)
        clusters = ClusterGraph(grid, radius=1.5)
        pairs = list(itertools.islice(itertools.combinations(grid.vertices(), 2), 80))
        assert clusters.check_never_underestimates(pairs)

    def test_same_vertex_zero(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        v = next(iter(partial_spanner.vertices()))
        assert clusters.approximate_distance(v, v, 10.0) == 0.0

    def test_cutoff_returns_inf(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=1.0)
        vertices = list(partial_spanner.vertices())
        u, v = vertices[0], vertices[-1]
        true_distance = pair_distance(partial_spanner, u, v)
        assert clusters.approximate_distance(u, v, true_distance * 0.01) == math.inf

    def test_query_counter(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        vertices = list(partial_spanner.vertices())
        clusters.approximate_distance(vertices[0], vertices[1], 100.0)
        clusters.approximate_distance(vertices[2], vertices[3], 100.0)
        assert clusters.query_count == 2

    def test_approximation_tighter_with_smaller_radius(self):
        """On a path graph, small clusters track true distances closely."""
        graph = path_graph(30)
        tight = ClusterGraph(graph, radius=1.0)
        loose = ClusterGraph(graph, radius=8.0)
        true_distance = pair_distance(graph, 0, 29)
        tight_estimate = tight.approximate_distance(0, 29, math.inf)
        loose_estimate = loose.approximate_distance(0, 29, math.inf)
        assert true_distance <= tight_estimate <= loose_estimate + 1e-9


class TestRebuildSkipping:
    def test_clean_same_radius_rebuild_is_skipped(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        assert clusters.rebuild_count == 1
        clusters.rebuild()
        clusters.rebuild(2.0)
        assert clusters.rebuild_count == 1
        assert clusters.skipped_rebuilds == 2

    def test_dirty_same_radius_rebuild_runs(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        u, v = list(partial_spanner.vertices())[:2]
        if not partial_spanner.has_edge(u, v):
            partial_spanner.add_edge(u, v, 0.25)
            clusters.notify_edge_added(u, v, 0.25)
        clusters.rebuild()
        assert clusters.rebuild_count == 2
        assert clusters.skipped_rebuilds == 0

    def test_out_of_band_spanner_mutation_defeats_the_skip(self, partial_spanner):
        """Edges added without notify_edge_added must still force a rebuild
        (the dirty flag cannot see them; the index/spanner edge-count
        comparison does)."""
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        vertices = list(partial_spanner.vertices())
        u, v = vertices[0], vertices[-1]
        if not partial_spanner.has_edge(u, v):
            partial_spanner.add_edge(u, v, 0.125)
        clusters.rebuild()
        assert clusters.rebuild_count == 2
        assert clusters.skipped_rebuilds == 0
        assert clusters.index.number_of_edges == partial_spanner.number_of_edges

    def test_radius_change_always_rebuilds(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        clusters.rebuild(3.0)
        assert clusters.rebuild_count == 2

    def test_incremental_transition_to_same_radius_is_skipped(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=2.0)
        clusters.transition(2.0)
        assert clusters.skipped_transitions == 1
        assert clusters.merge_count == 0


class TestIncrementalMode:
    def test_merge_coarsens_and_keeps_invariant(self, partial_spanner):
        clusters = VerifyingClusterGraph(partial_spanner, radius=1.0)
        before = clusters.number_of_clusters
        clusters.transition(4.0)
        assert clusters.merge_count == 1
        assert clusters.number_of_clusters <= before
        for vertex, offset in clusters.offset_of.items():
            assert offset <= 4.0 + 1e-9
            assert (
                pair_distance(partial_spanner, clusters.centre_of[vertex], vertex)
                <= offset + 1e-9
            )
        vertices = list(partial_spanner.vertices())
        pairs = list(itertools.islice(itertools.combinations(vertices, 2), 40))
        assert clusters.check_never_underestimates(pairs)

    def test_shrinking_radius_falls_back_to_rebuild(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=4.0)
        clusters.transition(1.0)
        assert clusters.merge_count == 0
        assert clusters.rebuild_count == 2
        assert clusters.radius == 1.0

    def test_never_underestimates_after_merges_and_notifies(self):
        graph = grid_graph(7, 7)
        clusters = VerifyingClusterGraph(graph, radius=0.5)
        graph.add_edge((0, 0), (6, 6), 3.0)
        clusters.notify_edge_added((0, 0), (6, 6), 3.0)
        clusters.transition(1.5)
        clusters.transition(4.0)
        pairs = list(itertools.islice(itertools.combinations(graph.vertices(), 2), 80))
        assert clusters.check_never_underestimates(pairs)


class TestUpdates:
    def test_notify_edge_added_improves_estimate(self):
        graph = path_graph(20)
        clusters = ClusterGraph(graph, radius=1.0)
        before = clusters.approximate_distance(0, 19, math.inf)
        # Add a shortcut to the underlying spanner and notify the cluster graph.
        graph.add_edge(0, 19, 2.0)
        clusters.notify_edge_added(0, 19, 2.0)
        after = clusters.approximate_distance(0, 19, math.inf)
        assert after < before
        # The new estimate must still never underestimate the true distance (2.0).
        assert after >= 2.0 - 1e-9

    def test_notify_edge_within_one_cluster_is_noop(self, partial_spanner):
        clusters = ClusterGraph(partial_spanner, radius=1e9)
        edges_before = clusters.graph.number_of_edges
        u, v, w = next(iter(partial_spanner.edges()))
        clusters.notify_edge_added(u, v, w)
        assert clusters.graph.number_of_edges == edges_before
