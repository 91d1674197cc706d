"""Unit tests for the lazy complete-graph view (repro.metric.closure)."""

from __future__ import annotations

import pytest
from oracles.order import canonical_sorted

from repro.errors import (
    EdgeNotFoundError,
    EmptyMetricError,
    ImmutableGraphError,
    VertexNotFoundError,
)
from repro.graph.mst import kruskal_mst, mst_weight
from repro.graph.shortest_paths import pair_distance
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import ExplicitMetric
from repro.metric.closure import MetricClosure


@pytest.fixture
def closure(small_points) -> MetricClosure:
    return MetricClosure(small_points)


class TestClosureMatchesCompleteGraph:
    def test_counts(self, small_points, closure):
        n = small_points.size
        assert closure.number_of_vertices == n
        assert closure.number_of_edges == n * (n - 1) // 2
        assert len(closure) == n

    def test_weights_and_membership(self, small_points, closure):
        complete = small_points.complete_graph()
        for u, v, weight in complete.edges():
            assert closure.has_edge(u, v)
            assert closure.weight(u, v) == weight  # bitwise
        assert closure.same_edges(complete)
        assert complete.same_edges(closure)

    def test_edges_iteration_matches(self, small_points, closure):
        complete = small_points.complete_graph()
        assert sorted(closure.edges()) == sorted(complete.edges())

    def test_sorted_edges_are_the_stream(self, small_points, closure):
        complete = small_points.complete_graph()
        streamed = list(closure.edges_sorted_by_weight())
        assert streamed == complete.edges_sorted_by_weight()
        assert streamed == canonical_sorted(complete.edges())

    def test_total_weight(self, small_points, closure):
        expected = small_points.complete_graph().total_weight()
        assert closure.total_weight() == pytest.approx(expected)

    def test_degrees(self, closure, small_points):
        n = small_points.size
        assert closure.degree(0) == n - 1
        assert closure.max_degree() == n - 1
        assert len(list(closure.neighbours(0))) == n - 1
        assert len(dict(closure.incident(0))) == n - 1
        assert closure.adjacency(0) == dict(closure.incident(0))

    def test_dijkstra_runs_on_closure(self, closure):
        # In a metric closure the direct edge is always a shortest path.
        assert pair_distance(closure, 0, 1) == pytest.approx(closure.weight(0, 1))


class TestClosureSemantics:
    def test_immutable(self, closure):
        with pytest.raises(ImmutableGraphError):
            closure.add_edge(0, 1, 1.0)
        with pytest.raises(ImmutableGraphError):
            closure.add_vertex("x")
        with pytest.raises(ImmutableGraphError):
            closure.remove_edge(0, 1)
        with pytest.raises(ImmutableGraphError):
            closure.remove_vertex(0)
        with pytest.raises(ImmutableGraphError):
            closure.add_edges([(0, 1, 1.0)])

    def test_missing_vertex_and_edge_errors(self, closure):
        with pytest.raises(VertexNotFoundError):
            closure.degree("nope")
        with pytest.raises(EdgeNotFoundError):
            closure.weight(0, "nope")
        with pytest.raises(EdgeNotFoundError):
            closure.weight(0, 0)  # no self-loops in a complete graph
        assert not closure.has_edge(0, 0)

    def test_empty_metric_rejected(self):
        with pytest.raises(EmptyMetricError):
            MetricClosure(ExplicitMetric([], {}))

    def test_copy_is_a_view_of_the_same_metric(self, closure):
        clone = closure.copy()
        assert isinstance(clone, MetricClosure)
        assert clone.metric is closure.metric
        assert clone.same_edges(closure)

    def test_empty_spanning_subgraph_is_mutable(self, closure):
        sub = closure.empty_spanning_subgraph()
        assert isinstance(sub, WeightedGraph)
        assert not isinstance(sub, MetricClosure)
        assert sub.number_of_edges == 0
        assert sub.number_of_vertices == closure.number_of_vertices
        sub.add_edge(0, 1, 1.0)  # mutable, unlike the closure

    def test_subgraph_with_edges(self, closure):
        sub = closure.subgraph_with_edges([(0, 1), (1, 2)])
        assert sub.number_of_edges == 2
        assert sub.weight(0, 1) == closure.weight(0, 1)

    def test_is_subgraph_of_materialized(self, small_points, closure):
        assert closure.is_subgraph_of(small_points.complete_graph())

    def test_repr_mentions_closure(self, closure):
        assert "MetricClosure" in repr(closure)


class TestMstFastPath:
    def test_dense_prim_matches_kruskal(self, small_points, closure):
        via_kruskal = kruskal_mst(small_points.complete_graph()).total_weight()
        assert closure.dense_metric_mst_weight() == pytest.approx(via_kruskal)

    def test_mst_weight_dispatches_to_dense_path(self, small_points, closure):
        assert mst_weight(closure) == pytest.approx(
            mst_weight(small_points.complete_graph())
        )

    def test_dense_prim_on_explicit_metric(self):
        metric = ExplicitMetric.from_matrix(
            [
                [0.0, 1.0, 4.0],
                [1.0, 0.0, 2.0],
                [4.0, 2.0, 0.0],
            ]
        )
        assert MetricClosure(metric).dense_metric_mst_weight() == pytest.approx(3.0)

    def test_single_point(self):
        metric = ExplicitMetric(["a"], {})
        closure = MetricClosure(metric)
        assert closure.dense_metric_mst_weight() == 0.0
        assert closure.number_of_edges == 0

    def test_dense_prim_rejects_degenerate_metric(self):
        # complete_graph() raises on a zero interpoint distance; the dense
        # fast path must do the same rather than return a plausible weight.
        from repro.errors import MetricAxiomError

        metric = ExplicitMetric(
            [0, 1, 2], {(0, 1): 0.0, (0, 2): 1.0, (1, 2): 1.0}
        )
        with pytest.raises(MetricAxiomError):
            MetricClosure(metric).dense_metric_mst_weight()
        with pytest.raises(MetricAxiomError):
            metric.complete_graph()

    def test_kruskal_over_streamed_edges(self, small_points, closure):
        # Kruskal consumes edges_sorted_by_weight as an iterable; the
        # streamed order must reproduce the exact same deterministic MST.
        streamed = kruskal_mst(closure)
        materialized = kruskal_mst(small_points.complete_graph())
        assert streamed.same_edges(materialized)
