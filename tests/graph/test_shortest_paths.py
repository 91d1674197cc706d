"""Unit tests for Dijkstra-based shortest paths."""

from __future__ import annotations

import math

import pytest
from oracles.graph import to_networkx

from repro.errors import VertexNotFoundError
from repro.graph.generators import grid_graph, path_graph, random_connected_graph
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import (
    dijkstra,
    dijkstra_with_cutoff,
    indexed_eccentricity,
    indexed_weighted_diameter,
    pair_distance,
    shortest_path,
    single_source_distances,
)
from repro.graph.weighted_graph import WeightedGraph

import networkx as nx


class TestDijkstra:
    def test_path_graph_distances(self):
        graph = path_graph(5, weight=2.0)
        distances, _ = dijkstra(graph, 0)
        assert distances == {0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0, 4: 8.0}

    def test_predecessors_form_shortest_path_tree(self, triangle_graph):
        distances, predecessors = dijkstra(triangle_graph, "a")
        assert predecessors["a"] is None
        # The heavy a-c edge (weight 4) is beaten by a-b-c (weight 3).
        assert distances["c"] == pytest.approx(3.0)
        assert predecessors["c"] == "b"

    def test_unknown_source_raises(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            dijkstra(triangle_graph, "zzz")

    def test_targets_early_exit(self, medium_random_graph):
        vertices = list(medium_random_graph.vertices())
        source, target = vertices[0], vertices[-1]
        partial, _ = dijkstra(medium_random_graph, source, targets=[target])
        full, _ = dijkstra(medium_random_graph, source)
        assert partial[target] == pytest.approx(full[target])
        assert len(partial) <= len(full)

    def test_disconnected_vertex_absent(self):
        graph = WeightedGraph(vertices=[1, 2, 3])
        graph.add_edge(1, 2, 1.0)
        distances, _ = dijkstra(graph, 1)
        assert 3 not in distances

    def test_matches_networkx(self, medium_random_graph):
        nx_graph = to_networkx(medium_random_graph)
        source = next(iter(medium_random_graph.vertices()))
        expected = nx.single_source_dijkstra_path_length(nx_graph, source)
        actual = single_source_distances(medium_random_graph, source)
        assert set(actual) == set(expected)
        for vertex, distance in expected.items():
            assert actual[vertex] == pytest.approx(distance)


class TestCutoffDijkstra:
    def test_within_cutoff(self, triangle_graph):
        assert dijkstra_with_cutoff(triangle_graph, "a", "c", 3.0) == pytest.approx(3.0)

    def test_beyond_cutoff_returns_inf(self, triangle_graph):
        assert dijkstra_with_cutoff(triangle_graph, "a", "c", 2.9) == math.inf

    def test_same_vertex(self, triangle_graph):
        assert dijkstra_with_cutoff(triangle_graph, "a", "a", 0.0) == 0.0

    def test_disconnected(self):
        graph = WeightedGraph(vertices=[1, 2])
        assert dijkstra_with_cutoff(graph, 1, 2, 100.0) == math.inf

    def test_agrees_with_exact_distance(self, medium_random_graph):
        vertices = list(medium_random_graph.vertices())
        for u, v in [(vertices[0], vertices[5]), (vertices[3], vertices[20])]:
            exact = pair_distance(medium_random_graph, u, v)
            assert dijkstra_with_cutoff(medium_random_graph, u, v, exact) == pytest.approx(exact)
            assert dijkstra_with_cutoff(medium_random_graph, u, v, exact * 0.99) == math.inf


class TestPaths:
    def test_shortest_path_endpoints(self, triangle_graph):
        path = shortest_path(triangle_graph, "a", "c")
        assert path[0] == "a" and path[-1] == "c"
        assert path == ["a", "b", "c"]

    def test_shortest_path_weight_matches_distance(self, medium_random_graph):
        vertices = list(medium_random_graph.vertices())
        u, v = vertices[1], vertices[-2]
        path = shortest_path(medium_random_graph, u, v)
        weight = sum(medium_random_graph.weight(a, b) for a, b in zip(path, path[1:]))
        assert weight == pytest.approx(pair_distance(medium_random_graph, u, v))

    def test_shortest_path_to_self(self, triangle_graph):
        assert shortest_path(triangle_graph, "a", "a") == ["a"]

    def test_shortest_path_unreachable_returns_none(self):
        graph = WeightedGraph(vertices=[1, 2])
        assert shortest_path(graph, 1, 2) is None


def _distance_table(graph: WeightedGraph) -> dict:
    return {vertex: single_source_distances(graph, vertex) for vertex in graph.vertices()}


def _diameter(graph: WeightedGraph) -> float:
    return indexed_weighted_diameter(IndexedGraph.from_weighted_graph(graph))[0]


class TestAllPairsAndAggregates:
    def test_all_pairs_symmetry(self, small_random_graph):
        table = _distance_table(small_random_graph)
        vertices = list(small_random_graph.vertices())
        for u in vertices[:10]:
            for v in vertices[:10]:
                assert table[u][v] == pytest.approx(table[v][u])

    def test_all_pairs_triangle_inequality(self, small_random_graph):
        table = _distance_table(small_random_graph)
        vertices = list(small_random_graph.vertices())[:12]
        for a in vertices:
            for b in vertices:
                for c in vertices:
                    assert table[a][c] <= table[a][b] + table[b][c] + 1e-9

    def test_grid_diameter(self):
        graph = grid_graph(3, 4)
        # Weighted diameter of a unit grid is the Manhattan corner-to-corner distance.
        assert _diameter(graph) == pytest.approx(2 + 3)

    def test_eccentricity_disconnected_is_inf(self):
        graph = WeightedGraph(vertices=[1, 2])
        assert indexed_eccentricity(IndexedGraph.from_weighted_graph(graph), 0)[0] == math.inf
        assert _diameter(graph) == math.inf

    def test_diameter_of_random_graph_is_finite(self, small_random_graph):
        assert math.isfinite(_diameter(small_random_graph))
