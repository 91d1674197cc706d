"""Unit tests for traversal and connectivity utilities."""

from __future__ import annotations

import pytest
from oracles.graph import (
    bfs_hop_distances,
    dfs_order,
    is_forest,
    is_tree,
    spanning_forest,
    vertices_within_hops,
)

from repro.errors import VertexNotFoundError
from repro.graph.generators import cycle_graph, grid_graph, path_graph, star_graph
from repro.graph.traversal import bfs_order, connected_components, is_connected
from repro.graph.weighted_graph import WeightedGraph


class TestBFS:
    def test_bfs_order_starts_at_source(self, unit_grid):
        order = bfs_order(unit_grid, (0, 0))
        assert order[0] == (0, 0)
        assert len(order) == unit_grid.number_of_vertices

    def test_bfs_hop_distances_on_path(self):
        graph = path_graph(5)
        hops = bfs_hop_distances(graph, 0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_unknown_source(self, unit_grid):
        with pytest.raises(VertexNotFoundError):
            bfs_order(unit_grid, "missing")

    def test_vertices_within_hops(self):
        graph = star_graph(6)
        nearby = set(vertices_within_hops(graph, 0, 1))
        assert nearby == set(range(6))
        only_centre = set(vertices_within_hops(graph, 0, 0))
        assert only_centre == {0}


class TestDFS:
    def test_dfs_visits_everything(self, unit_grid):
        order = dfs_order(unit_grid, (0, 0))
        assert len(order) == unit_grid.number_of_vertices
        assert len(set(order)) == len(order)

    def test_dfs_only_reachable(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        assert set(dfs_order(graph, 1)) == {1, 2}


class TestConnectivity:
    def test_connected_graph(self, unit_grid):
        assert is_connected(unit_grid)

    def test_disconnected_graph(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        assert not is_connected(graph)
        assert len(connected_components(graph)) == 2

    def test_empty_graph_is_connected(self):
        assert is_connected(WeightedGraph())

    def test_isolated_vertices_are_components(self):
        graph = WeightedGraph(vertices=[1, 2, 3])
        assert len(connected_components(graph)) == 3


class TestTreeCheckers:
    def test_path_is_tree(self):
        assert is_tree(path_graph(5))
        assert is_forest(path_graph(5))

    def test_cycle_is_not_forest(self):
        assert not is_forest(cycle_graph(4))
        assert not is_tree(cycle_graph(4))

    def test_two_disjoint_paths_are_forest_not_tree(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        assert is_forest(graph)
        assert not is_tree(graph)

    def test_grid_is_not_forest(self, unit_grid):
        assert not is_forest(unit_grid)


class TestSpanningForest:
    def test_spanning_forest_of_connected_graph_is_tree(self, unit_grid):
        forest = spanning_forest(unit_grid)
        assert is_tree(forest)
        assert forest.number_of_edges == unit_grid.number_of_vertices - 1

    def test_spanning_forest_of_disconnected_graph(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        forest = spanning_forest(graph)
        assert forest.number_of_edges == 3
        assert is_forest(forest)

    def test_spanning_forest_uses_graph_edges(self, small_random_graph):
        forest = spanning_forest(small_random_graph)
        for u, v, _ in forest.edges():
            assert small_random_graph.has_edge(u, v)
