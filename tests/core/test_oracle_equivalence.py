"""Property-style equivalence tests across the distance-oracle strategies.

Every oracle strategy answers the greedy question "is δ_H(u, v) ≤ cutoff?"
with the same verdict (the caching oracle may return an upper bound instead
of the exact distance, but only when the bound already certifies the
verdict), so all strategies must construct the *identical* greedy spanner on
any input.  These tests exercise that invariant on random Erdős–Rényi graphs
and random Euclidean metrics, plus the bookkeeping contracts: valid upper
bounds from the cache and skip counts surfaced in ``Spanner`` metadata.
"""

from __future__ import annotations

import math

import pytest

from repro.core.distance_oracle import CachedDijkstraOracle, ORACLE_FACTORIES
from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.graph.generators import random_connected_graph
from repro.graph.shortest_paths import pair_distance
from repro.metric.generators import uniform_points

ALL_STRATEGIES = tuple(ORACLE_FACTORIES)
FAST_STRATEGIES = ("cached",)


class TestIdenticalSpanners:
    @pytest.mark.parametrize("seed", [3, 11, 29, 57])
    @pytest.mark.parametrize("stretch", [1.5, 2.0, 3.0])
    def test_erdos_renyi_graphs(self, seed, stretch):
        graph = random_connected_graph(40, 0.2, seed=seed)
        reference = greedy_spanner(graph, stretch, oracle="bounded")
        for name in ALL_STRATEGIES:
            spanner = greedy_spanner(graph, stretch, oracle=name)
            assert spanner.subgraph.same_edges(reference.subgraph), name

    @pytest.mark.parametrize("seed", [5, 17, 41])
    @pytest.mark.parametrize("stretch", [1.2, 2.0])
    def test_euclidean_metrics(self, seed, stretch):
        metric = uniform_points(35, 2, seed=seed)
        reference = greedy_spanner_of_metric(metric, stretch, oracle="bounded")
        for name in ALL_STRATEGIES:
            spanner = greedy_spanner_of_metric(metric, stretch, oracle=name)
            assert spanner.subgraph.same_edges(reference.subgraph), name

    def test_higher_dimension_metric(self):
        metric = uniform_points(30, 3, seed=23)
        reference = greedy_spanner_of_metric(metric, 1.5, oracle="bounded")
        for name in FAST_STRATEGIES:
            spanner = greedy_spanner_of_metric(metric, 1.5, oracle=name)
            assert spanner.subgraph.same_edges(reference.subgraph), name

    def test_exact_cutoff_boundary(self):
        """Decimal weights hitting δ_H(u, v) == t·w(u, v) exactly: a search
        that associates the path sum differently than forward Dijkstra (a
        meet-in-the-middle oracle once did) flips this verdict."""
        from repro.graph.weighted_graph import WeightedGraph

        graph = WeightedGraph(
            edges=[
                (0, 1, 0.3), (0, 3, 0.3), (1, 2, 0.2), (1, 5, 0.1),
                (2, 4, 0.2), (3, 4, 0.2), (3, 5, 1.0), (4, 5, 1.0),
            ]
        )
        reference = greedy_spanner(graph, 3.0, oracle="bounded")
        for name in ALL_STRATEGIES:
            spanner = greedy_spanner(graph, 3.0, oracle=name)
            assert spanner.subgraph.same_edges(reference.subgraph), name

    @pytest.mark.parametrize("seed", [0, 1])
    def test_decimal_weight_fuzz(self, seed):
        """Small random graphs restricted to decimal weights, the adversarial
        family for exact-boundary verdicts."""
        import itertools
        import random

        from repro.graph.weighted_graph import WeightedGraph

        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(4, 9)
            graph = WeightedGraph(vertices=range(n))
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < 0.6:
                    graph.add_edge(u, v, rng.choice([0.1, 0.2, 0.3, 0.5, 1.0]))
            stretch = rng.choice([1.5, 2.0, 3.0])
            reference = greedy_spanner(graph, stretch, oracle="bounded")
            for name in FAST_STRATEGIES:
                spanner = greedy_spanner(graph, stretch, oracle=name)
                assert spanner.subgraph.same_edges(reference.subgraph), name


class TestCachedOracle:
    def test_returns_valid_upper_bounds(self, medium_random_graph):
        """On a static graph every answer is an upper bound on the true distance,
        and never a finite value when the true distance exceeds the cutoff."""
        oracle = CachedDijkstraOracle(medium_random_graph)
        vertices = list(medium_random_graph.vertices())
        for i in range(0, 24, 2):
            u, v = vertices[i], vertices[i + 1]
            exact = pair_distance(medium_random_graph, u, v)
            for cutoff in (exact * 0.7, exact, exact * 1.4, math.inf):
                answer = oracle.distance_within(u, v, cutoff)
                if exact > cutoff:
                    assert answer == math.inf
                else:
                    assert exact <= answer <= cutoff + 1e-9

    def test_repeat_queries_hit_the_cache(self, small_random_graph):
        oracle = CachedDijkstraOracle(small_random_graph)
        vertices = list(small_random_graph.vertices())
        u, v = vertices[0], vertices[9]
        exact = pair_distance(small_random_graph, u, v)
        first = oracle.distance_within(u, v, exact * 2)
        hits_before = oracle.cache_hits
        second = oracle.distance_within(u, v, exact * 2)
        assert oracle.cache_hits == hits_before + 1
        assert second == first

    def test_notified_edges_become_cached_bounds(self, small_random_graph):
        spanner = small_random_graph.empty_spanning_subgraph()
        oracle = CachedDijkstraOracle(spanner)
        vertices = list(small_random_graph.vertices())
        u, v = vertices[0], vertices[1]
        spanner.add_edge(u, v, 3.0)
        oracle.notify_edge_added(u, v, 3.0)
        assert oracle.distance_within(u, v, 3.0) == 3.0
        assert oracle.cache_hits == 1

    def test_skip_counts_reflected_in_spanner_metadata(self):
        metric = uniform_points(40, 2, seed=31)
        spanner = greedy_spanner_of_metric(metric, 2.0, oracle="cached")
        metadata = spanner.metadata
        assert metadata["cache_hits"] > 0
        assert metadata["cache_misses"] > 0
        assert metadata["cache_hits"] + metadata["cache_misses"] == metadata["distance_queries"]
        assert metadata["cached_bounds"] > 0

    def test_default_oracle_is_cached(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        assert "cache_hits" in spanner.metadata
        assert (
            spanner.metadata["cache_hits"] + spanner.metadata["cache_misses"]
            == spanner.metadata["distance_queries"]
        )


class TestMonotoneCutoffMode:
    """The greedy loop's bitset cache mode (see CachedDijkstraOracle docs)."""

    def test_default_is_value_cache(self, small_random_graph):
        oracle = CachedDijkstraOracle(small_random_graph)
        assert oracle.monotone_cutoffs is False

    def test_greedy_enables_monotone_mode_and_counts_match_value_mode(self):
        """Hit/miss/settle counts are identical in both cache representations."""
        metric = uniform_points(60, 2, seed=47)
        streamed = greedy_spanner_of_metric(metric, 2.0, oracle="cached")

        # Re-run the same examination sequence against a value-cache oracle.
        complete = metric.complete_graph()
        spanner_graph = complete.empty_spanning_subgraph()
        oracle = CachedDijkstraOracle(spanner_graph)  # monotone_cutoffs off
        added = 0
        for u, v, weight in complete.edges_sorted_by_weight():
            cutoff = 2.0 * weight
            if oracle.distance_within(u, v, cutoff) > cutoff:
                spanner_graph.add_edge(u, v, weight)
                oracle.notify_edge_added(u, v, weight)
                added += 1
        assert spanner_graph.same_edges(streamed.subgraph)
        assert added == streamed.metadata["edges_added"]
        assert float(oracle.cache_hits) == streamed.metadata["cache_hits"]
        assert float(oracle.cache_misses) == streamed.metadata["cache_misses"]
        assert float(oracle.settled_count) == streamed.metadata["dijkstra_settles"]

    def test_monotone_mode_reports_peak_bounds(self):
        metric = uniform_points(40, 2, seed=31)
        spanner = greedy_spanner_of_metric(metric, 2.0, oracle="cached")
        assert "peak_cached_bounds" in spanner.metadata
        # The value dictionary only ever holds edge bounds in monotone mode,
        # far below the ~n²/2 entries the value cache would accumulate.
        n = metric.size
        assert spanner.metadata["peak_cached_bounds"] < n * (n - 1) / 4

    def test_monotone_mode_answers_certify_the_verdict(self, small_random_graph):
        """In monotone mode a hit may return the cutoff itself; the verdict
        (within / not within) must still match the exact distance."""
        spanner_graph = small_random_graph.copy()
        oracle = CachedDijkstraOracle(spanner_graph)
        oracle.monotone_cutoffs = True
        vertices = list(spanner_graph.vertices())
        pairs = [(vertices[i], vertices[j]) for i in range(6) for j in range(i + 1, 6)]
        queries = sorted(
            (pair_distance(spanner_graph, u, v), u, v) for u, v in pairs
        )
        for exact, u, v in queries:  # non-decreasing cutoffs, as promised
            cutoff = exact * 1.01
            answer = oracle.distance_within(u, v, cutoff)
            # The pair is genuinely within the cutoff, so the oracle must
            # certify it: any returned bound at most the cutoff is correct.
            assert answer <= cutoff
