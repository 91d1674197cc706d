"""Unit tests for the graph generators."""

from __future__ import annotations

import math

import pytest
from oracles.graph import is_tree, reference_bucketed_geometric_graph

from repro.errors import GraphError
from repro.graph.generators import (
    bucketed_geometric_graph,
    complete_graph,
    cycle_graph,
    figure1_instance,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    high_girth_incidence_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_geometric_graph,
    random_tree,
    star_graph,
    uniform_weight_graph_from_edges,
)
from repro.graph.girth import unweighted_girth
from repro.graph.traversal import is_connected


class TestDeterministicFamilies:
    def test_path_graph(self):
        graph = path_graph(5)
        assert graph.number_of_vertices == 5
        assert graph.number_of_edges == 4
        assert is_tree(graph)

    def test_cycle_graph(self):
        graph = cycle_graph(6)
        assert graph.number_of_edges == 6
        assert all(graph.degree(v) == 2 for v in graph.vertices())

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star_graph(self):
        graph = star_graph(7)
        assert graph.degree(0) == 6
        assert graph.number_of_edges == 6

    def test_complete_graph(self):
        graph = complete_graph(6)
        assert graph.number_of_edges == 15
        assert graph.max_degree() == 5

    def test_complete_graph_random_weights_reproducible(self):
        g1 = complete_graph(8, random_weights=True, seed=3)
        g2 = complete_graph(8, random_weights=True, seed=3)
        assert g1.same_edges(g2)

    def test_grid_graph(self):
        graph = grid_graph(3, 4)
        assert graph.number_of_vertices == 12
        assert graph.number_of_edges == 3 * 3 + 2 * 4
        assert is_connected(graph)

    def test_hypercube(self):
        graph = hypercube_graph(4)
        assert graph.number_of_vertices == 16
        assert graph.number_of_edges == 32
        assert all(graph.degree(v) == 4 for v in graph.vertices())

    def test_petersen_properties(self):
        graph = petersen_graph()
        assert graph.number_of_vertices == 10
        assert graph.number_of_edges == 15
        assert all(graph.degree(v) == 3 for v in graph.vertices())
        assert unweighted_girth(graph) == 5


class TestRandomFamilies:
    def test_random_tree_is_tree(self):
        tree = random_tree(30, seed=1)
        assert is_tree(tree)

    def test_random_tree_reproducible(self):
        assert random_tree(20, seed=5).same_edges(random_tree(20, seed=5))

    def test_gnp_edge_count_reasonable(self):
        graph = gnp_random_graph(40, 0.5, seed=2)
        maximum = 40 * 39 // 2
        assert 0.3 * maximum < graph.number_of_edges < 0.7 * maximum

    def test_gnp_zero_probability(self):
        assert gnp_random_graph(10, 0.0, seed=0).number_of_edges == 0

    def test_gnm_exact_edge_count(self):
        graph = gnm_random_graph(20, 50, seed=3)
        assert graph.number_of_edges == 50

    def test_gnm_too_many_edges(self):
        with pytest.raises(GraphError):
            gnm_random_graph(5, 100, seed=0)

    def test_random_connected_graph_is_connected(self):
        graph = random_connected_graph(50, 0.05, seed=4)
        assert is_connected(graph)
        assert graph.number_of_edges >= 49

    def test_random_geometric_graph_connected_and_metric_weights(self):
        graph = random_geometric_graph(30, 0.2, seed=5)
        assert is_connected(graph)
        for _, _, weight in graph.edges():
            assert 0.0 < weight <= 2.0 ** 0.5 + 1e-9


def assert_same_graph(graph, reference):
    """Vertex order, every row's neighbour order and weight bits, the edge
    count, and the seeded ``edge_arrays()`` against fresh passes."""
    assert list(graph.vertices()) == list(reference.vertices())
    for vertex in reference.vertices():
        row = [(v, w.hex()) for v, w in graph.incident(vertex)]
        assert row == [(v, w.hex()) for v, w in reference.incident(vertex)], vertex
    assert graph.number_of_edges == reference.number_of_edges
    seeded = graph.edge_arrays()
    for fresh in (graph.copy().edge_arrays(), reference.edge_arrays()):
        assert seeded[0] == fresh[0]
        for array, expected in zip(seeded[1:], fresh[1:]):
            assert array.dtype == expected.dtype
            assert array.tobytes() == expected.tobytes()


class TestBucketedGeometric:
    """The array generator against the per-pair loop it replaced."""

    @pytest.mark.parametrize("degree", [0.5, 1.0, 4.0, 16.0, 40.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 300, 2500])
    def test_matches_the_per_pair_loop(self, n, degree):
        radius = math.sqrt(degree / (math.pi * max(1, n)))
        for seed in (3, 11) if n == 2500 else (1, 3, 7, 11):
            assert_same_graph(
                bucketed_geometric_graph(n, radius, seed=seed),
                reference_bucketed_geometric_graph(n, radius, seed=seed),
            )

    @pytest.mark.parametrize("radius", [2.0**-61, 1e-9, 1e-3, 0.7, 1.0, 2.0, math.inf])
    @pytest.mark.parametrize("ensure_connected", [True, False])
    def test_matches_the_per_pair_loop_at_any_radius(self, radius, ensure_connected):
        # The three smallest take the coarse cell table, 2.0 and inf one cell.
        for n in (1, 5, 200):
            assert_same_graph(
                bucketed_geometric_graph(n, radius, seed=2, ensure_connected=ensure_connected),
                reference_bucketed_geometric_graph(
                    n, radius, seed=2, ensure_connected=ensure_connected
                ),
            )

    def test_disconnected_radius_is_chained_into_one_component(self):
        graph = bucketed_geometric_graph(300, 0.01, seed=4)
        assert is_connected(graph)
        assert not is_connected(bucketed_geometric_graph(300, 0.01, seed=4, ensure_connected=False))

    @pytest.mark.parametrize(
        "n, radius",
        [(10, math.nan), (10, 0.0), (10, -0.5), (10, 5e-324), (10, 2.0**-63), (-3, 0.1)],
        ids=["nan", "zero", "negative", "subnormal", "below-2**-62", "negative-n"],
    )
    def test_bad_arguments_raise_graph_error(self, n, radius):
        with pytest.raises(GraphError):
            bucketed_geometric_graph(n, radius, seed=1)


class TestPaperConstructions:
    def test_projective_plane_parameters(self):
        q = 3
        graph = high_girth_incidence_graph(q)
        points = q * q + q + 1
        assert graph.number_of_vertices == 2 * points
        assert graph.number_of_edges == (q + 1) * points
        assert unweighted_girth(graph) == 6

    def test_projective_plane_requires_prime(self):
        with pytest.raises(GraphError):
            high_girth_incidence_graph(4)

    def test_figure1_instance_structure(self):
        combined, petersen, star = figure1_instance(0.1)
        assert petersen.number_of_edges == 15
        assert star.number_of_edges == 9
        # The combined graph has the 15 Petersen edges plus the 6 star edges
        # that are not Petersen edges.
        assert combined.number_of_edges == 15 + 6
        # Star edges to non-neighbours of the root carry weight 1 + eps.
        heavy = [w for _, _, w in star.edges() if w > 1.0]
        assert len(heavy) == 6
        assert all(w == pytest.approx(1.1) for w in heavy)

    def test_figure1_requires_positive_epsilon(self):
        with pytest.raises(GraphError):
            figure1_instance(0.0)

    def test_uniform_weight_graph_from_edges(self):
        graph = uniform_weight_graph_from_edges(4, [(0, 1), (1, 2)], weight=2.0)
        assert graph.number_of_vertices == 4
        assert graph.total_weight() == pytest.approx(4.0)
