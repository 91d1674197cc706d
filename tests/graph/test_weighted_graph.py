"""Unit tests for :class:`repro.graph.weighted_graph.WeightedGraph`."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.order import canonical_sorted

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph.weighted_graph import WeightedGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = WeightedGraph()
        assert graph.number_of_vertices == 0
        assert graph.number_of_edges == 0
        assert graph.total_weight() == 0.0

    def test_initial_vertices(self):
        graph = WeightedGraph(vertices=[1, 2, 3])
        assert graph.number_of_vertices == 3
        assert graph.number_of_edges == 0

    def test_initial_edges(self):
        graph = WeightedGraph(edges=[(1, 2, 1.5), (2, 3, 2.5)])
        assert graph.number_of_vertices == 3
        assert graph.number_of_edges == 2
        assert graph.weight(1, 2) == 1.5

    def test_add_vertex_idempotent(self):
        graph = WeightedGraph()
        graph.add_vertex("x")
        graph.add_vertex("x")
        assert graph.number_of_vertices == 1

    def test_add_edge_creates_endpoints(self):
        graph = WeightedGraph()
        graph.add_edge("u", "v", 3.0)
        assert graph.has_vertex("u") and graph.has_vertex("v")
        assert graph.has_edge("u", "v") and graph.has_edge("v", "u")

    def test_add_edge_overwrites_weight(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(1, 2, 5.0)
        assert graph.number_of_edges == 1
        assert graph.weight(1, 2) == 5.0
        assert graph.weight(2, 1) == 5.0

    def test_self_loop_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(SelfLoopError):
            graph.add_edge(1, 1, 1.0)

    @pytest.mark.parametrize(
        "bad_weight, message",
        [
            pytest.param(0.0, "edge weight must be positive, got 0.0", id="0.0"),
            pytest.param(-1.0, "edge weight must be positive, got -1.0", id="-1.0"),
            pytest.param(math.inf, "edge weight must be finite, got inf", id="inf"),
            pytest.param(-math.inf, "edge weight must be positive, got -inf", id="-inf"),
            pytest.param(math.nan, "edge weight must be finite, got nan", id="nan"),
            pytest.param("x", "edge weight 'x' is not a number", id="x"),
            pytest.param(None, "edge weight None is not a number", id="None"),
            # Accepted, and stored as Python floats.
            pytest.param(3, None, id="int"),
            pytest.param(np.float64(2.5), None, id="float64"),
            pytest.param(True, None, id="True"),
        ],
    )
    def test_invalid_weights_rejected(self, bad_weight, message):
        graph = WeightedGraph(vertices=[1])
        if message is None:
            graph.add_edge(1, 2, bad_weight)
            assert type(graph.weight(1, 2)) is float
            assert type(graph.weight(2, 1)) is float
            assert graph.weight(1, 2) == float(bad_weight)
            return
        with pytest.raises(InvalidWeightError) as raised:
            graph.add_edge(1, 2, bad_weight)
        assert str(raised.value) == message
        assert list(graph.vertices()) == [1] and graph.number_of_edges == 0

    def test_tuple_vertices(self):
        graph = WeightedGraph()
        graph.add_edge((0, 0), (0, 1), 1.0)
        assert graph.has_edge((0, 1), (0, 0))


class TestMutation:
    def test_remove_edge(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (2, 3, 1.0)])
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.has_vertex(1)
        assert graph.number_of_edges == 1

    def test_remove_missing_edge_raises(self):
        graph = WeightedGraph(vertices=[1, 2])
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_remove_vertex_removes_incident_edges(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        graph.remove_vertex(2)
        assert graph.number_of_vertices == 2
        assert graph.number_of_edges == 1
        assert not graph.has_edge(1, 2)

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(VertexNotFoundError):
            WeightedGraph().remove_vertex("ghost")


class TestQueries:
    def test_degree(self, triangle_graph):
        assert triangle_graph.degree("a") == 2
        assert triangle_graph.max_degree() == 2

    def test_degree_missing_vertex(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            triangle_graph.degree("zzz")

    def test_weight_missing_edge(self, triangle_graph):
        with pytest.raises(EdgeNotFoundError):
            triangle_graph.weight("a", "zzz")

    def test_neighbours(self, triangle_graph):
        assert set(triangle_graph.neighbours("a")) == {"b", "c"}

    def test_incident_pairs(self, triangle_graph):
        incident = dict(triangle_graph.incident("a"))
        assert incident == {"b": 1.0, "c": 4.0}

    def test_edges_each_once(self, triangle_graph):
        edges = list(triangle_graph.edges())
        assert len(edges) == 3
        endpoints = {frozenset((u, v)) for u, v, _ in edges}
        assert len(endpoints) == 3

    def test_edges_sorted_by_weight(self, triangle_graph):
        weights = [w for _, _, w in triangle_graph.edges_sorted_by_weight()]
        assert weights == sorted(weights)

    def test_edges_sorted_deterministic_ties(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0), (5, 6, 1.0)])
        first = graph.edges_sorted_by_weight()
        second = graph.edges_sorted_by_weight()
        assert first == second

    def test_edges_sorted_empty_and_edgeless(self):
        assert WeightedGraph().edges_sorted_by_weight() == []
        assert WeightedGraph(vertices=[1, 2]).edges_sorted_by_weight() == []

    def test_total_weight(self, triangle_graph):
        assert triangle_graph.total_weight() == pytest.approx(7.0)

    def test_contains_and_len(self, triangle_graph):
        assert "a" in triangle_graph
        assert "zzz" not in triangle_graph
        assert len(triangle_graph) == 3


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge("a", "b")
        assert triangle_graph.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_empty_spanning_subgraph(self, triangle_graph):
        empty = triangle_graph.empty_spanning_subgraph()
        assert empty.number_of_vertices == 3
        assert empty.number_of_edges == 0

    def test_subgraph_with_edges(self, triangle_graph):
        sub = triangle_graph.subgraph_with_edges([("a", "b")])
        assert sub.number_of_edges == 1
        assert sub.weight("a", "b") == 1.0
        assert sub.number_of_vertices == 3

    def test_subgraph_with_missing_edge_raises(self, triangle_graph):
        with pytest.raises(EdgeNotFoundError):
            triangle_graph.subgraph_with_edges([("a", "zzz")])

    def test_union_edges(self):
        g1 = WeightedGraph(edges=[(1, 2, 1.0)])
        g2 = WeightedGraph(edges=[(2, 3, 2.0)])
        merged = g1.union_edges(g2)
        assert merged.number_of_edges == 2
        assert merged.has_edge(1, 2) and merged.has_edge(2, 3)

    def test_union_edges_prefers_self_weight(self):
        g1 = WeightedGraph(edges=[(1, 2, 1.0)])
        g2 = WeightedGraph(edges=[(1, 2, 9.0)])
        merged = g1.union_edges(g2)
        assert merged.weight(1, 2) == 1.0


class TestComparisons:
    def test_same_edges(self, triangle_graph):
        assert triangle_graph.same_edges(triangle_graph.copy())

    def test_same_edges_detects_difference(self, triangle_graph):
        other = triangle_graph.copy()
        other.remove_edge("a", "b")
        assert not triangle_graph.same_edges(other)
        assert not other.same_edges(triangle_graph)

    def test_same_edges_weight_tolerance(self):
        g1 = WeightedGraph(edges=[(1, 2, 1.0)])
        g2 = WeightedGraph(edges=[(1, 2, 1.0 + 1e-12)])
        assert g1.same_edges(g2, tolerance=1e-9)
        assert not g1.same_edges(g2, tolerance=0.0)

    def test_is_subgraph_of(self, triangle_graph):
        sub = triangle_graph.subgraph_with_edges([("a", "b")])
        assert sub.is_subgraph_of(triangle_graph)
        assert not triangle_graph.is_subgraph_of(sub)

    def test_repr_contains_counts(self, triangle_graph):
        text = repr(triangle_graph)
        assert "n=3" in text and "m=3" in text


def _grouped_by_smaller_id(graph: WeightedGraph) -> dict:
    """The verification grouping computed straight from ``graph.edges()``."""
    id_of = {vertex: i for i, vertex in enumerate(graph.vertices())}
    grouped: dict = {}
    for u, v, weight in graph.edges():
        source, target = sorted((id_of[u], id_of[v]))
        targets, weights = grouped.setdefault(source, ([], []))
        targets.append(target)
        weights.append(weight)
    return grouped


class TestEdgeArrays:
    def test_arrays_follow_edges_and_are_memoized(self, triangle_graph):
        vertices, u_ids, v_ids, weights = triangle_graph.edge_arrays()
        assert vertices == tuple(triangle_graph.vertices())
        assert list(zip(u_ids.tolist(), v_ids.tolist(), weights.tolist())) == [
            (vertices.index(u), vertices.index(v), w) for u, v, w in triangle_graph.edges()
        ]
        assert triangle_graph.edge_arrays() is triangle_graph.edge_arrays()
        assert not u_ids.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_vertex("z"),
            lambda g: g.add_edge("a", "z", 0.5),
            lambda g: g.add_edge("a", "b", 9.0),  # overwrites an existing weight
            lambda g: g.remove_edge("a", "b"),
            lambda g: g.remove_vertex("a"),
        ],
        ids=["add_vertex", "add_edge", "overwrite_weight", "remove_edge", "remove_vertex"],
    )
    def test_every_mutator_drops_the_memo(self, triangle_graph, mutate):
        from repro.spanners.verification import VerificationEngine

        graph = triangle_graph
        graph.add_edge("c", "d", 2.0)
        before = graph.edge_arrays()
        assert VerificationEngine(graph, graph).grouped_base_edges() == _grouped_by_smaller_id(graph)
        mutate(graph)
        assert graph.edge_arrays() is not before
        assert graph.edges_sorted_by_weight() == canonical_sorted(graph.edges())
        grouped = VerificationEngine(graph, graph).grouped_base_edges()
        assert grouped == _grouped_by_smaller_id(graph)
        assert list(grouped) == list(_grouped_by_smaller_id(graph))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_vertex(9),
            lambda g: g.add_edge(0, 9, 0.5),
            lambda g: g.add_edge(0, 1, 9.0),  # overwrites an existing weight
            lambda g: g.remove_edge(0, 1),
            lambda g: g.remove_vertex(2),
        ],
        ids=["add_vertex", "add_edge", "overwrite_weight", "remove_edge", "remove_vertex"],
    )
    def test_every_mutator_drops_the_seeded_memo(self, mutate):
        triples = [(1, 0, 1.0), (2, 3, 2.0), (0, 2, 4.0), (3, 1, 0.5)]
        graph = WeightedGraph.from_edge_arrays(4, *map(np.array, zip(*triples)))
        reference = _added_in_order(4, triples)
        seeded = graph.edge_arrays()
        mutate(graph)
        mutate(reference)
        after = graph.edge_arrays()
        assert after is not seeded
        assert after[0] == reference.edge_arrays()[0]
        for array, expected in zip(after[1:], reference.edge_arrays()[1:]):
            assert array.tolist() == expected.tolist()

    def test_metric_closure_builds_never_call_edge_arrays(self, monkeypatch):
        from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
        from repro.metric.closure import MetricClosure
        from repro.metric.generators import uniform_points
        from repro.spanners.verification import verify_spanner_edges

        def refuse(graph):
            raise AssertionError("edge_arrays called")

        monkeypatch.setattr(WeightedGraph, "edge_arrays", refuse)
        metric = uniform_points(30, 2, seed=4)
        streamed = greedy_spanner_of_metric(metric, 1.5)
        closure = greedy_spanner(MetricClosure(metric), 1.5)
        assert closure.subgraph.same_edges(streamed.subgraph)
        assert verify_spanner_edges(streamed.subgraph, streamed.base, 1.5)


def _added_in_order(n: int, triples) -> WeightedGraph:
    graph = WeightedGraph(range(n))
    for u, v, weight in triples:
        graph.add_edge(u, v, weight)
    return graph


@st.composite
def _edge_lists(draw):
    """``(n, [(u, v, weight), ...])`` with every unordered pair at most once,
    each in a drawn orientation."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    triples = []
    for u, v in chosen:
        weight = draw(st.floats(min_value=1e-6, max_value=1e6))
        triples.append((v, u, weight) if draw(st.booleans()) else (u, v, weight))
    return n, triples


class TestFromEdgeArrays:
    @settings(max_examples=150, deadline=None)
    @given(_edge_lists())
    def test_equals_add_edge_in_array_order(self, case):
        n, triples = case
        us, vs, weights = zip(*triples) if triples else ((), (), ())
        graph = WeightedGraph.from_edge_arrays(
            n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(weights)
        )
        reference = _added_in_order(n, triples)
        assert list(graph.vertices()) == list(reference.vertices())
        for vertex in reference.vertices():
            row = [(v, w.hex()) for v, w in graph.incident(vertex)]
            assert row == [(v, w.hex()) for v, w in reference.incident(vertex)]
        assert graph.number_of_edges == reference.number_of_edges
        seeded, fresh = graph.edge_arrays(), reference.edge_arrays()
        assert seeded[0] == fresh[0]
        for array, expected in zip(seeded[1:], fresh[1:]):
            assert array.dtype == expected.dtype and array.tobytes() == expected.tobytes()
            assert not array.flags.writeable
        for u, v, _ in triples:  # one float object per edge, in both rows
            assert graph.adjacency(u)[v] is graph.adjacency(v)[u]

    def test_rows_hold_each_vertex_own_int(self):
        # Ids past 256 are not CPython's cached small ints.
        rng = np.random.default_rng(3)
        n = 700
        u = rng.permutation(n)[:400]
        v = (u + 1 + rng.integers(0, n - 1, u.size)) % n
        graph = WeightedGraph.from_edge_arrays(n, u, v, rng.random(u.size) + 0.5)
        own = {vertex: vertex for vertex in graph.vertices()}
        for vertex in graph.vertices():
            assert all(key is own[key] for key in graph.adjacency(vertex))
        assert graph.number_of_edges == 400

    @pytest.mark.parametrize(
        "n, triples, error",
        [
            (3, [(0, 1, 1.0), (2, 2, 1.0)], SelfLoopError),
            (3, [(0, 1, 0.0)], InvalidWeightError),
            (3, [(0, 1, -1.0)], InvalidWeightError),
            (3, [(0, 1, math.nan)], InvalidWeightError),
            (3, [(0, 1, math.inf)], InvalidWeightError),
            (3, [(0, 3, 1.0)], VertexNotFoundError),
            (3, [(-1, 1, 1.0)], VertexNotFoundError),
            (3, [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0)], GraphError),
            (3, [(0, 1, 1.0), (0, 1, 1.0)], GraphError),
            (-1, [], GraphError),
        ],
        ids=["self-loop", "zero", "negative", "nan", "inf", "id-n", "id-negative",
             "reversed-repeat", "repeat", "negative-n"],
    )
    def test_bad_edges_raise_typed_errors(self, n, triples, error):
        columns = list(zip(*triples)) if triples else [(), (), ()]
        with pytest.raises(error):
            WeightedGraph.from_edge_arrays(n, *(np.array(column) for column in columns))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(GraphError):
            WeightedGraph.from_edge_arrays(3, np.array([0, 1]), np.array([1]), np.array([1.0]))


class Labelled:
    """A vertex whose distinct instances share one ``repr``."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return self.label


# Mixed vertex types whose reprs interleave: ``1`` and ``'1'`` differ, while a
# ``Labelled("1")`` shares its repr with the int ``1`` and with every other
# ``Labelled("1")``.
vertex_labels = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.text(alphabet="1ab", max_size=2),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(Labelled, st.sampled_from(["1", "V", "'a'"])),
)


@st.composite
def tie_heavy_graphs(draw) -> WeightedGraph:
    """Graphs over mixed vertices with weights drawn from 2-3 values."""
    vertices = draw(st.lists(vertex_labels, min_size=2, max_size=12, unique=True))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=2, max_size=3, unique=True))
    graph = WeightedGraph(vertices=draw(st.permutations(vertices)))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices), st.sampled_from(weights)),
            max_size=40,
        )
    )
    for u, v, weight in pairs:
        if u != v:
            graph.add_edge(u, v, weight)
    return graph


@settings(max_examples=150, deadline=None)
@given(graph=tie_heavy_graphs())
def test_edges_sorted_by_weight_matches_repr_sort(graph):
    """The rank lexsort is exactly the stable ``(w, repr(u), repr(v))`` sort."""
    assert graph.edges_sorted_by_weight() == canonical_sorted(graph.edges())

