"""Integration tests: the experiments reproduce the *shape* of the paper's claims.

Absolute numbers depend on workloads and constants; what the paper predicts —
and what these tests pin down — is who wins, what stays flat and what grows.
Workload sizes here are reduced so the whole module runs in seconds; the
full-size runs live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.experiments.experiments import (
    experiment_approximate_greedy,
    experiment_broadcast,
    experiment_comparison,
    experiment_degree,
    experiment_doubling_metrics,
    experiment_figure1,
    experiment_general_graphs,
    experiment_lemma3,
)


class TestFigure1Experiment:
    def test_greedy_keeps_petersen_and_star_wins(self):
        result = experiment_figure1(epsilons=(0.1, 0.3))
        for row in result.rows:
            assert row["greedy_edges"] == 15
            assert row["petersen_edges_kept"] == 15
            assert row["star_edges"] == 9
            assert row["star_is_valid_spanner"] is True
            assert row["universally_optimal"] is False
            assert row["greedy_weight"] == pytest.approx(row["greedy_weight_on_H"])


class TestLemma3Experiment:
    def test_all_checks_pass(self):
        result = experiment_lemma3(sizes=(15, 25), stretches=(1.5, 3.0))
        assert result.rows
        for row in result.rows:
            assert row["fixed_point"] is True
            assert row["no_redundant_edge"] is True
            assert row["contains_mst"] is True


class TestGeneralGraphExperiment:
    def test_greedy_beats_baswana_sen_and_bounds(self):
        result = experiment_general_graphs(sizes=(40, 80), ks=(2,))
        assert result.rows
        for row in result.rows:
            assert row["greedy_edges"] <= row["size_bound"]
            assert row["greedy_wins_size"] is True
            assert row["greedy_wins_lightness"] is True
            assert row["existential_certificate"] is True


class TestDoublingMetricExperiment:
    def test_linear_size_and_flat_lightness(self):
        result = experiment_doubling_metrics(sizes=(30, 60, 120), epsilons=(0.5,))
        rows = result.rows
        assert len(rows) == 3
        # O(n) edges: edges-per-point bounded by a small constant at every size.
        for row in rows:
            assert row["edges_per_point"] <= 6.0
        # Lightness does not grow with n: the largest instance is within 50% of
        # the smallest (the Corollary 10 "constant lightness" shape).
        lightnesses = [row["lightness"] for row in rows]
        assert max(lightnesses) <= 1.5 * min(lightnesses) + 0.5


class TestApproximateGreedyExperiment:
    def test_quality_close_and_queries_fewer(self):
        result = experiment_approximate_greedy(sizes=(30, 60))
        for row in result.rows:
            assert row["approx_valid"] is True
            assert row["lightness_ratio"] <= 3.0
            assert row["approx_distance_queries"] <= row["exact_distance_queries"]
        # The query gap widens with n (quadratic vs one query per base edge).
        small, large = result.rows[0], result.rows[-1]
        gap_small = small["exact_distance_queries"] / max(small["approx_distance_queries"], 1)
        gap_large = large["exact_distance_queries"] / max(large["approx_distance_queries"], 1)
        assert gap_large >= gap_small


class TestComparisonExperiment:
    def test_greedy_is_sparsest_and_lightest_valid_spanner(self):
        result = experiment_comparison(n=60)
        rows = {row["algorithm"]: row for row in result.rows}
        greedy = rows["greedy"]
        for name, row in rows.items():
            if name in ("greedy", "mst"):
                continue
            assert row["edges"] >= greedy["edges"]
            assert row["weight"] >= greedy["weight"]
        # The net-tree / WSPD constructions are much heavier — the quoted
        # empirical phenomenon (order-of-magnitude, not marginal).
        assert rows["wspd"]["weight_vs_greedy"] > 5.0
        assert rows["net-tree"]["weight_vs_greedy"] > 5.0

    def test_clustered_workload_same_ordering(self):
        result = experiment_comparison(n=50, clustered=True)
        rows = {row["algorithm"]: row for row in result.rows}
        assert rows["wspd"]["edges"] >= rows["greedy"]["edges"]
        assert rows["theta-graph"]["weight"] >= rows["greedy"]["weight"]


class TestBroadcastExperiment:
    def test_greedy_overlay_near_mst_cost_near_optimal_delay(self):
        result = experiment_broadcast(n=50)
        rows = {row["overlay"]: row for row in result.rows}
        full, mst, greedy = rows["full-graph"], rows["mst"], rows["greedy-spanner"]
        # Everyone reaches all vertices.
        for row in rows.values():
            assert row["reached"] == full["reached"]
        # Cost: mst <= greedy << full.
        assert mst["communication_cost"] <= greedy["communication_cost"] + 1e-9
        assert greedy["communication_cost"] < full["communication_cost"]
        # Delay: greedy within its stretch bound of optimal and no worse than the MST.
        assert greedy["delay_stretch"] <= 1.5 + 1e-6
        assert greedy["delay_stretch"] <= mst["delay_stretch"] + 1e-9


class TestRoutingExperiment:
    def test_ports_and_route_stretch_trade_off(self):
        from repro.experiments.experiments import experiment_routing

        result = experiment_routing(n=50, demand_count=40)
        rows = {row["overlay"]: row for row in result.rows}
        assert rows["greedy-spanner"]["max_ports"] <= rows["full-graph"]["max_ports"]
        assert rows["greedy-spanner"]["max_route_stretch"] <= 1.5 + 1e-6
        assert rows["full-graph"]["max_route_stretch"] == pytest.approx(1.0)
        assert rows["mst"]["max_ports"] <= rows["greedy-spanner"]["max_ports"] + 1


class TestDegreeExperiment:
    def test_star_blowup_and_euclidean_flatness(self):
        result = experiment_degree(star_sizes=(10, 30), euclidean_sizes=(30, 60))
        star_rows = [r for r in result.rows if r["workload"] == "star"]
        euclid_rows = [r for r in result.rows if r["workload"] == "uniform-2d"]
        for row in star_rows:
            assert row["greedy_max_degree"] == row["n"] - 1
        # Euclidean degrees stay small and do not track n.
        degrees = [r["greedy_max_degree"] for r in euclid_rows]
        assert max(degrees) <= 12
        approx_degrees = [r["approx_greedy_max_degree"] for r in euclid_rows]
        assert max(approx_degrees) <= 16
