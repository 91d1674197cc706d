"""Hypothesis property tests for the graph substrate.

These exercise the invariants the rest of the library relies on: Dijkstra
agreeing with brute force, MST optimality against networkx, symmetry and the
triangle inequality of graph distances, and the behaviour of union-find.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from oracles.graph import is_forest, prim_mst, to_networkx

from repro.graph.mst import DisjointSet, kruskal_mst
from repro.graph.shortest_paths import pair_distance, single_source_distances
from repro.graph.traversal import is_connected
from repro.graph.weighted_graph import WeightedGraph


@st.composite
def connected_weighted_graphs(draw, max_vertices: int = 12):
    """Generate a small connected weighted graph (random tree + extra edges)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = WeightedGraph(vertices=range(n))
    # Random tree backbone guarantees connectivity.
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        weight = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        graph.add_edge(parent, v, weight)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(u, v):
            weight = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
            graph.add_edge(u, v, weight)
    return graph


@settings(max_examples=40, deadline=None)
@given(connected_weighted_graphs())
def test_generated_graphs_are_connected(graph):
    assert is_connected(graph)


@settings(max_examples=30, deadline=None)
@given(connected_weighted_graphs())
def test_dijkstra_matches_networkx(graph):
    nx_graph = to_networkx(graph)
    source = 0
    expected = nx.single_source_dijkstra_path_length(nx_graph, source)
    actual = single_source_distances(graph, source)
    assert set(actual) == set(expected)
    for vertex, distance in expected.items():
        assert actual[vertex] == pytest.approx(distance)


@settings(max_examples=30, deadline=None)
@given(connected_weighted_graphs())
def test_graph_distances_satisfy_metric_axioms(graph):
    vertices = list(graph.vertices())
    tables = {v: single_source_distances(graph, v) for v in vertices}
    for u in vertices:
        assert tables[u][u] == 0.0
        for v in vertices:
            assert tables[u][v] == pytest.approx(tables[v][u])
            for w in vertices:
                assert tables[u][w] <= tables[u][v] + tables[v][w] + 1e-9


@settings(max_examples=30, deadline=None)
@given(connected_weighted_graphs())
def test_mst_matches_networkx_and_prim(graph):
    kruskal = kruskal_mst(graph)
    prim = prim_mst(graph)
    nx_weight = nx.minimum_spanning_tree(to_networkx(graph)).size(weight="weight")
    assert kruskal.total_weight() == pytest.approx(nx_weight)
    assert prim.total_weight() == pytest.approx(nx_weight)
    assert is_forest(kruskal)
    assert kruskal.number_of_edges == graph.number_of_vertices - 1


@settings(max_examples=30, deadline=None)
@given(connected_weighted_graphs())
def test_edge_weight_upper_bounds_distance(graph):
    """For every edge (u, v), the graph distance is at most the edge weight."""
    for u, v, weight in graph.edges():
        assert pair_distance(graph, u, v) <= weight + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)),
        max_size=40,
    )
)
def test_disjoint_set_equivalence_relation(pairs):
    """Union-find connectivity matches a brute-force transitive closure."""
    ds = DisjointSet(range(21))
    adjacency = {i: {i} for i in range(21)}
    for a, b in pairs:
        ds.union(a, b)
        # Brute-force merge of equivalence classes.
        merged = adjacency[a] | adjacency[b]
        for member in merged:
            adjacency[member] = merged
    for a in range(21):
        for b in range(21):
            assert (ds.find(a) == ds.find(b)) == (b in adjacency[a])


@settings(max_examples=40, deadline=None)
@given(connected_weighted_graphs())
def test_number_of_components_after_edge_removals(graph):
    """Removing a non-bridge edge keeps the graph connected; count via union-find."""
    edges = list(graph.edges())
    if not edges:
        return
    u, v, _ = edges[0]
    reduced = graph.copy()
    reduced.remove_edge(u, v)
    still_connected = is_connected(reduced)
    detour = pair_distance(reduced, u, v)
    assert still_connected == math.isfinite(detour)
