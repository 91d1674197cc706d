"""Unit tests for the greedy algorithm's distance oracles."""

from __future__ import annotations

import math

import pytest

from repro.core.distance_oracle import (
    BoundedDijkstraOracle,
    CachedDijkstraOracle,
    make_oracle,
)
from repro.errors import SpannerError, UnknownOracleError, VertexNotFoundError
from repro.graph.generators import path_graph, random_connected_graph
from repro.graph.shortest_paths import pair_distance


class TestFactory:
    def test_make_bounded(self, small_random_graph):
        assert isinstance(make_oracle("bounded", small_random_graph), BoundedDijkstraOracle)

    def test_make_cached(self, small_random_graph):
        assert isinstance(make_oracle("cached", small_random_graph), CachedDijkstraOracle)

    def test_unknown_name(self, small_random_graph):
        with pytest.raises(ValueError):
            make_oracle("quantum", small_random_graph)

    @pytest.mark.parametrize("name", ["magic", "full", "bidirectional"])
    def test_unknown_name_is_typed(self, small_random_graph, name):
        with pytest.raises(UnknownOracleError) as excinfo:
            make_oracle(name, small_random_graph)
        assert isinstance(excinfo.value, SpannerError)
        assert excinfo.value.valid == ["bounded", "cached"]


@pytest.mark.parametrize("oracle_name", ["bounded", "cached"])
class TestCorrectness:
    def test_matches_exact_distance_within_cutoff(self, small_random_graph, oracle_name):
        oracle = make_oracle(oracle_name, small_random_graph)
        vertices = list(small_random_graph.vertices())
        for u, v in [(vertices[0], vertices[7]), (vertices[3], vertices[19])]:
            exact = pair_distance(small_random_graph, u, v)
            assert oracle.distance_within(u, v, exact * 1.01) == pytest.approx(exact)

    def test_returns_inf_beyond_cutoff(self, small_random_graph, oracle_name):
        oracle = make_oracle(oracle_name, small_random_graph)
        vertices = list(small_random_graph.vertices())
        u, v = vertices[0], vertices[15]
        exact = pair_distance(small_random_graph, u, v)
        assert oracle.distance_within(u, v, exact * 0.5) == math.inf

    def test_same_vertex_distance_zero(self, small_random_graph, oracle_name):
        oracle = make_oracle(oracle_name, small_random_graph)
        v = next(iter(small_random_graph.vertices()))
        assert oracle.distance_within(v, v, 0.0) == 0.0

    def test_counters(self, small_random_graph, oracle_name):
        oracle = make_oracle(oracle_name, small_random_graph)
        vertices = list(small_random_graph.vertices())
        oracle.distance_within(vertices[0], vertices[1], 100.0)
        oracle.distance_within(vertices[2], vertices[3], 100.0)
        assert oracle.query_count == 2
        assert oracle.settled_count > 0
        oracle.reset_counters()
        assert oracle.query_count == 0
        assert oracle.settled_count == 0


@pytest.mark.parametrize("oracle_name", ["bounded", "cached"])
class TestUnknownVertices:
    """Both oracles raise the typed error for a vertex the spanner lacks,
    the ``u == v`` query and the unknown-target query included."""

    @pytest.mark.parametrize("u, v", [(99, 99), (0, 99), (99, 0)])
    def test_unknown_vertex_raises(self, oracle_name, u, v):
        oracle = make_oracle(oracle_name, path_graph(3))
        with pytest.raises(VertexNotFoundError) as excinfo:
            oracle.distance_within(u, v, 5.0)
        assert excinfo.value.vertex == 99

    def test_known_vertices_still_answer(self, oracle_name):
        oracle = make_oracle(oracle_name, path_graph(3))
        assert oracle.distance_within(1, 1, 0.0) == 0.0
        assert oracle.distance_within(0, 2, 5.0) == 2.0


class TestPruningBenefit:
    def test_bounded_oracle_settles_fewer_vertices_on_long_paths(self):
        """With a tight cutoff, the bounded oracle explores a small neighbourhood
        where an unpruned search would walk the whole path."""
        graph = path_graph(200)
        bounded = BoundedDijkstraOracle(graph)
        # Ask for the distance between the two ends with a tiny cutoff.
        assert bounded.distance_within(0, 199, 5.0) == math.inf
        assert bounded.settled_count < graph.number_of_vertices

    def test_oracles_agree_on_random_graph(self, medium_random_graph):
        bounded = BoundedDijkstraOracle(medium_random_graph)
        vertices = list(medium_random_graph.vertices())
        for i in range(0, 20, 2):
            u, v = vertices[i], vertices[i + 1]
            cutoff = 15.0
            exact = pair_distance(medium_random_graph, u, v)
            expected = exact if exact <= cutoff else math.inf
            assert bounded.distance_within(u, v, cutoff) == pytest.approx(expected)
