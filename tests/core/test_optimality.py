"""Unit tests for the executable optimality lemmas (the heart of the paper)."""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.optimality import (
    analyse_figure1,
    brute_force_optimal_spanner,
    build_metric_spanner_of_greedy,
    existential_optimality_certificate,
    greedy_is_fixed_point,
    metric_optimality_certificate,
    project_metric_spanner_onto_graph,
    verify_lemma3_self_spanner,
    verify_lemma7_weight,
    verify_lemma8_size,
    verify_observation2,
    verify_observation6,
    verify_observation12,
)
from repro.errors import SpannerError
from repro.graph.generators import (
    cycle_graph,
    petersen_graph,
    random_connected_graph,
)
from repro.graph.mst import kruskal_mst
from repro.metric.generators import uniform_points
from repro.spanners.trivial import mst_spanner
from repro.spanners.verification import verify_spanner_edges


class TestObservation2:
    @pytest.mark.parametrize("t", [1.0, 1.5, 3.0, 8.0])
    def test_greedy_contains_mst(self, medium_random_graph, t):
        assert verify_observation2(greedy_spanner(medium_random_graph, t))

    def test_fails_for_tree_missing_spanner(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        mst = kruskal_mst(small_random_graph)
        u, v, _ = next(iter(mst.edges()))
        spanner.subgraph.remove_edge(u, v)
        assert not verify_observation2(spanner)


class TestLemma3:
    @pytest.mark.parametrize("t", [1.2, 2.0, 3.0])
    def test_fixed_point_on_random_graphs(self, medium_random_graph, t):
        assert greedy_is_fixed_point(greedy_spanner(medium_random_graph, t))

    @pytest.mark.parametrize("t", [1.2, 2.0, 3.0])
    def test_no_redundant_edge(self, small_random_graph, t):
        assert verify_lemma3_self_spanner(greedy_spanner(small_random_graph, t))

    def test_non_greedy_spanner_can_violate_the_self_spanner_property(self):
        """A non-greedily built spanner may contain a removable edge — the
        property of Lemma 3 is specific to greedy outputs."""
        graph = cycle_graph(4, weight=1.0)
        # The full 4-cycle is a valid 3-spanner of itself, but edge (0,1) can be
        # removed: the detour 0-3-2-1 has weight 3 ≤ 3 * 1.
        from repro.core.spanner import Spanner

        fake = Spanner(base=graph, subgraph=graph.copy(), stretch=3.0)
        assert not verify_lemma3_self_spanner(fake)


class TestObservations6And12:
    def test_observation6_on_random_graphs(self):
        for seed in (1, 2, 3):
            graph = random_connected_graph(18, 0.3, seed=seed)
            assert verify_observation6(graph)

    def test_observation12_for_greedy_spanners(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        assert verify_observation12(small_random_graph, spanner.subgraph, 2.0)

    def test_observation12_for_mst(self, small_random_graph):
        tree = mst_spanner(small_random_graph).subgraph
        n = small_random_graph.number_of_vertices
        assert verify_observation12(small_random_graph, tree, float(n - 1))


class TestLemmas7And8:
    @pytest.fixture
    def greedy_and_competitor(self, small_points):
        greedy = greedy_spanner_of_metric(small_points, 1.4)
        competitor = build_metric_spanner_of_greedy(greedy, 1.4)
        return greedy, competitor

    def test_lemma7_weight(self, greedy_and_competitor):
        greedy, competitor = greedy_and_competitor
        assert verify_lemma7_weight(greedy, competitor)

    def test_lemma8_size(self, greedy_and_competitor):
        greedy, competitor = greedy_and_competitor
        assert verify_lemma8_size(greedy, competitor)

    def test_lemma8_requires_stretch_below_two(self, small_points):
        greedy = greedy_spanner_of_metric(small_points, 2.5)
        competitor = build_metric_spanner_of_greedy(greedy, 2.5)
        with pytest.raises(SpannerError):
            verify_lemma8_size(greedy, competitor)

    def test_projection_is_subgraph_with_no_larger_weight(self, greedy_and_competitor):
        greedy, competitor = greedy_and_competitor
        projected = project_metric_spanner_onto_graph(competitor, greedy.subgraph)
        assert projected.is_subgraph_of(greedy.subgraph)
        assert projected.total_weight() <= competitor.total_weight() + 1e-9


class TestCertificates:
    @pytest.mark.parametrize("t", [1.5, 3.0])
    def test_general_graph_certificate(self, small_random_graph, t):
        certificate = existential_optimality_certificate(small_random_graph, t)
        assert certificate.holds()
        assert certificate.greedy_edges == certificate.competitor_edges
        assert certificate.greedy_weight == pytest.approx(certificate.competitor_weight)

    @pytest.mark.parametrize("t", [1.3, 1.8])
    def test_metric_certificate(self, small_points, t):
        certificate = metric_optimality_certificate(small_points, t)
        assert certificate.holds()
        assert certificate.greedy_lightness <= certificate.competitor_lightness + 1e-9


class TestFigure1:
    def test_reproduces_paper_numbers(self):
        report = analyse_figure1(epsilon=0.1, stretch=3.0)
        assert report.greedy_edges == 15
        assert report.petersen_edges_kept == 15
        assert report.star_edges == 9
        assert report.star_is_valid_spanner
        assert not report.greedy_is_universally_optimal
        assert report.greedy_weight == pytest.approx(15.0)
        assert report.greedy_weight_on_petersen_alone == pytest.approx(15.0)
        assert report.greedy_matches_petersen_on_petersen

    def test_star_weight_formula(self):
        report = analyse_figure1(epsilon=0.2, stretch=3.0)
        # 3 unit edges to Petersen-neighbours of the root + 6 edges of weight 1.2.
        assert report.star_weight == pytest.approx(3 * 1.0 + 6 * 1.2)

    def test_large_epsilon_star_stops_being_valid(self):
        # For stretch 3 the star is a valid spanner only while 2 + 2eps <= 3.
        report = analyse_figure1(epsilon=0.6, stretch=3.0)
        assert not report.star_is_valid_spanner
        assert report.greedy_is_universally_optimal


class TestBruteForce:
    def test_brute_force_matches_greedy_on_high_girth_graph(self):
        """On a girth-5 graph, no proper subgraph is a 3-spanner, so the
        brute-force optimum equals the graph itself — and the greedy spanner."""
        graph = cycle_graph(5)
        optimal = brute_force_optimal_spanner(graph, 3.0)
        greedy = greedy_spanner(graph, 3.0)
        assert optimal.number_of_edges == greedy.number_of_edges == 5

    def test_brute_force_beats_greedy_on_miniature_figure1(self):
        """A 5-cycle plus a (1+eps)-star: the same phenomenon as Figure 1 on a
        graph small enough for exhaustive search — greedy keeps the girth-5
        cycle (5 edges), the optimal 3-spanner is the 4-edge star."""
        graph = cycle_graph(5, weight=1.0)
        graph.add_edge(0, 2, 1.1)
        graph.add_edge(0, 3, 1.1)
        optimal = brute_force_optimal_spanner(graph, 3.0, objective="size")
        greedy = greedy_spanner(graph, 3.0)
        assert greedy.number_of_edges == 5
        assert optimal.number_of_edges == 4
        assert optimal.number_of_edges < greedy.number_of_edges

    def test_brute_force_validates_result(self, triangle_graph):
        optimal = brute_force_optimal_spanner(triangle_graph, 1.5)
        assert verify_spanner_edges(optimal, triangle_graph, 1.5)

    def test_brute_force_rejects_large_graphs(self, medium_random_graph):
        with pytest.raises(SpannerError):
            brute_force_optimal_spanner(medium_random_graph, 2.0)

    def test_brute_force_rejects_unknown_objective(self, triangle_graph):
        with pytest.raises(ValueError):
            brute_force_optimal_spanner(triangle_graph, 2.0, objective="beauty")
