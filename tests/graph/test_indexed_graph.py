"""Unit tests for the dense-integer :class:`IndexedGraph` fast path."""

from __future__ import annotations

import math

import pytest

from repro.errors import SelfLoopError
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import (
    dijkstra_with_cutoff,
    indexed_ball,
    indexed_bidirectional_cutoff,
    indexed_dijkstra_with_cutoff,
    pair_distance,
)


class TestInterning:
    def test_first_seen_order(self):
        graph = IndexedGraph(vertices=["c", "a", "b"])
        assert [graph.vertex_of(i) for i in range(3)] == ["c", "a", "b"]
        assert graph.id_of("a") == 1

    def test_intern_is_idempotent(self):
        graph = IndexedGraph()
        assert graph.intern("x") == graph.intern("x") == 0
        assert graph.number_of_vertices == 1

    def test_unknown_vertex_raises(self):
        with pytest.raises(KeyError):
            IndexedGraph().id_of("missing")


class TestEdges:
    def test_add_and_query(self):
        graph = IndexedGraph(edges=[("a", "b", 2.0), ("b", "c", 1.5)])
        assert graph.number_of_vertices == 3
        assert graph.number_of_edges == 2
        assert graph.has_edge_ids(graph.id_of("a"), graph.id_of("b"))
        assert graph.weight_ids(graph.id_of("b"), graph.id_of("c")) == 1.5

    def test_overwrite_keeps_edge_count(self):
        graph = IndexedGraph(edges=[("a", "b", 2.0)])
        graph.add_edge("a", "b", 5.0)
        assert graph.number_of_edges == 1
        assert graph.weight_ids(0, 1) == 5.0
        assert graph.weight_ids(1, 0) == 5.0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            IndexedGraph().add_edge("a", "a", 1.0)

    def test_edges_yields_each_once_in_id_order(self):
        graph = IndexedGraph(edges=[("a", "b", 1.0), ("a", "c", 2.0), ("b", "c", 3.0)])
        listed = list(graph.edges())
        assert listed == [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)]
        assert list(graph.vertex_edges()) == [
            ("a", "b", 1.0),
            ("a", "c", 2.0),
            ("b", "c", 3.0),
        ]


class TestConversions:
    def test_round_trip(self, small_random_graph):
        indexed = IndexedGraph.from_weighted_graph(small_random_graph)
        assert indexed.number_of_vertices == small_random_graph.number_of_vertices
        assert indexed.number_of_edges == small_random_graph.number_of_edges
        assert indexed.to_weighted_graph().same_edges(small_random_graph)

    def test_id_order_matches_vertex_order(self, small_random_graph):
        indexed = IndexedGraph.from_weighted_graph(small_random_graph)
        for vid, vertex in enumerate(small_random_graph.vertices()):
            assert indexed.id_of(vertex) == vid


class TestIndexedSearches:
    def test_cutoff_search_matches_dict_version(self, small_random_graph):
        indexed = IndexedGraph.from_weighted_graph(small_random_graph)
        vertices = list(small_random_graph.vertices())
        for u, v, cutoff in [
            (vertices[0], vertices[7], 10.0),
            (vertices[3], vertices[19], 2.0),
            (vertices[5], vertices[5], 0.0),
        ]:
            expected = dijkstra_with_cutoff(small_random_graph, u, v, cutoff)
            actual, _ = indexed_dijkstra_with_cutoff(
                indexed, indexed.id_of(u), indexed.id_of(v), cutoff
            )
            assert actual == pytest.approx(expected)

    def test_bidirectional_matches_exact(self, medium_random_graph):
        indexed = IndexedGraph.from_weighted_graph(medium_random_graph)
        vertices = list(medium_random_graph.vertices())
        for i in range(0, 16, 2):
            u, v = vertices[i], vertices[i + 1]
            exact = pair_distance(medium_random_graph, u, v)
            found, settled_f, settled_b = indexed_bidirectional_cutoff(
                indexed, indexed.id_of(u), indexed.id_of(v), exact * 1.01
            )
            assert found == pytest.approx(exact)
            assert settled_f[indexed.id_of(u)] == 0.0
            beyond, _, _ = indexed_bidirectional_cutoff(
                indexed, indexed.id_of(u), indexed.id_of(v), exact * 0.5
            )
            assert beyond == math.inf

    def test_settled_maps_hold_exact_distances(self, small_random_graph):
        indexed = IndexedGraph.from_weighted_graph(small_random_graph)
        vertices = list(small_random_graph.vertices())
        source = vertices[0]
        ball = indexed_ball(indexed, indexed.id_of(source), 5.0)
        for vid, dist in ball.items():
            exact = pair_distance(small_random_graph, source, indexed.vertex_of(vid))
            assert dist == pytest.approx(exact)
            assert dist <= 5.0 or vid == indexed.id_of(source)


class TestAppendSupport:
    def test_add_vertices_is_stable(self):
        graph = IndexedGraph()
        graph.add_vertices(["a", "b", "c"])
        assert [graph.id_of(v) for v in "abc"] == [0, 1, 2]
        graph.add_vertices(["b", "d"])  # re-interning never moves an id
        assert graph.id_of("b") == 1
        assert graph.id_of("d") == 3
        assert graph.number_of_vertices == 4

    def test_append_edge_unchecked_ids(self):
        graph = IndexedGraph(vertices=["a", "b", "c"])
        graph.append_edge_unchecked_ids(0, 1, 2.0)
        graph.append_edge_unchecked_ids(1, 2, 1.5)
        assert graph.number_of_edges == 2
        assert graph.weight_ids(0, 1) == 2.0
        assert graph.weight_ids(2, 1) == 1.5

    def test_append_edge_unchecked_ids_rejects_self_loop(self):
        graph = IndexedGraph(vertices=["a"])
        with pytest.raises(SelfLoopError):
            graph.append_edge_unchecked_ids(0, 0, 1.0)

    def test_ids_survive_interleaved_growth(self):
        """The append-capable id map: ids cached before arbitrary later
        appends keep resolving to the same vertices (no re-snapshotting)."""
        graph = IndexedGraph(vertices=range(6))
        cached = [graph.id_of(v) for v in range(6)]
        for step in range(5):
            graph.append_edge_unchecked_ids(step, step + 1, 1.0)
        assert [graph.id_of(v) for v in range(6)] == cached
        assert graph.number_of_edges == 5



    def test_version_grows_on_every_mutation(self):
        """Every mutation bumps ``version``, reads and re-interning do not;
        an overwrite keeps ``(n, m)`` but still moves it."""
        graph = IndexedGraph(edges=[("a", "b", 2.0)])
        seen = [graph.version]

        def bumped() -> bool:
            seen.append(graph.version)
            return seen[-1] > seen[-2]

        graph.intern("a")
        graph.id_of("b")
        list(graph.edges())
        assert not bumped()
        graph.intern("c")
        assert bumped()
        graph.append_edge_unchecked_ids(1, 2, 1.0)
        assert bumped()
        graph.append_edge_unchecked("a", "c", 3.0)
        assert bumped()
        shape = (graph.number_of_vertices, graph.number_of_edges)
        graph.add_edge("a", "b", 0.5)
        assert bumped()
        assert (graph.number_of_vertices, graph.number_of_edges) == shape
        graph.add_edge_ids(0, 2, 0.25)
        assert bumped()
        graph.add_edge("c", "d", 1.0)
        assert bumped()
