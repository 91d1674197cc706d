"""Property tests for the indexed batch verification engine.

Three contracts are driven over random inputs:

* **reference equivalence** — the batch engine and the seed per-pair
  reference (``tests/oracles/verification.py``) agree on every verdict
  (edge, sampled, Lemma 3) and produce *bit-identical* stretch-profile
  floats, on weighted graphs with dyadic tie-heavy weights (the
  adversarial family for float-boundary verdicts), on string-vertex
  graphs (the family the seed dedup bug double-counted), and on lazy metric
  closures;
* **early-stopping edge check** — certifying a base edge by its own
  subgraph edge (by weight, not presence) and stopping each source's search
  at its last pending target keep the reference verdict on spanners with
  dropped, over-weighted or isolating edge removals;
* **dedup correctness** — exact profiles count each unordered pair exactly
  once whatever the vertex type (regression for the seed's int-only
  ``target <= source`` skip);
* **parallel determinism** — sharding the per-source loops across worker
  processes changes nothing: same profile floats, same merged operation
  counters for 1 and N workers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.verification import (
    lemma3_reference,
    max_edge_stretch_reference,
    profile_reference,
    verify_edges_reference,
    verify_sampled_reference,
)

from repro.core.greedy import greedy_spanner
from repro.core.optimality import is_t_spanner_of, verify_lemma3_self_spanner
from repro.core.spanner import Spanner
from repro.graph.generators import random_connected_graph
from repro.graph.mst import kruskal_mst, mst_weight, mst_weight_indexed
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.closure import MetricClosure
from repro.metric.euclidean import EuclideanMetric
from repro.metric.generators import uniform_points
from repro.spanners.registry import build_spanner
from repro.spanners.verification import (
    EdgeVerification,
    VerificationEngine,
    stretch_profile,
    stretch_profile_detailed,
    verify_spanner_edges,
    verify_spanner_edges_detailed,
    verify_spanner_sampled,
)

# Dyadic weights (multiples of 1/8): sums and ratios hit exact float ties,
# the adversarial family for threshold verdicts and bit-identity claims.
dyadic_graphs = st.builds(
    lambda n, seed, picks: _dyadic_graph(n, seed, picks),
    st.integers(min_value=4, max_value=14),
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=6),
)


def _dyadic_graph(n: int, seed: int, picks: list[int]) -> WeightedGraph:
    """A connected random graph whose weights are dyadic rationals from ``picks``."""
    import random

    base = random_connected_graph(n, 0.4, seed=seed)
    rng = random.Random(seed)
    graph = WeightedGraph(vertices=base.vertices())
    for u, v, _ in base.edges():
        graph.add_edge(u, v, rng.choice(picks) / 8.0)
    return graph


def _string_relabelled(graph: WeightedGraph) -> WeightedGraph:
    """The same graph with string vertex labels (the seed dedup bug's family)."""
    relabelled = WeightedGraph(vertices=(f"v{u}" for u in graph.vertices()))
    for u, v, weight in graph.edges():
        relabelled.add_edge(f"v{u}", f"v{v}", weight)
    return relabelled


class TestModeEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(graph=dyadic_graphs, stretch=st.sampled_from([1.25, 1.5, 2.0, 3.0]))
    def test_dyadic_graphs(self, graph, stretch):
        spanner = greedy_spanner(graph, stretch)
        for candidate in (spanner.subgraph, kruskal_mst(graph)):
            indexed = verify_spanner_edges(candidate, graph, stretch)
            reference = verify_edges_reference(candidate, graph, stretch).ok
            assert indexed == reference
        profile_indexed = stretch_profile(spanner, exact=True)
        profile_ref, _ = profile_reference(spanner)
        assert profile_indexed == profile_ref  # bit-identical floats

    @settings(max_examples=15, deadline=None)
    @given(graph=dyadic_graphs, stretch=st.sampled_from([1.5, 2.0]))
    def test_string_vertex_graphs(self, graph, stretch):
        relabelled = _string_relabelled(graph)
        spanner = greedy_spanner(relabelled, stretch)
        assert verify_spanner_edges(
            spanner.subgraph, relabelled, stretch
        ) == verify_edges_reference(spanner.subgraph, relabelled, stretch).ok
        assert stretch_profile(spanner, exact=True) == profile_reference(spanner)[0]

    @settings(max_examples=15, deadline=None)
    @given(
        graph=dyadic_graphs,
        stretch=st.sampled_from([1.5, 2.0]),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_sampled_verdicts(self, graph, stretch, seed):
        spanner = greedy_spanner(graph, stretch)
        assert verify_spanner_sampled(
            spanner, samples=40, seed=seed
        ) == verify_sampled_reference(spanner, samples=40, seed=seed)
        weak = Spanner(
            base=graph, subgraph=kruskal_mst(graph), stretch=1.01, algorithm="mst"
        )
        assert verify_spanner_sampled(
            weak, samples=40, seed=seed
        ) == verify_sampled_reference(weak, samples=40, seed=seed)
        for checked in (spanner, weak):
            assert stretch_profile(
                checked, exact=False, samples=40, seed=seed
            ) == profile_reference(checked, exact=False, samples=40, seed=seed)[0]

    @settings(max_examples=10, deadline=None)
    @given(graph=dyadic_graphs, stretch=st.sampled_from([1.5, 2.0]))
    def test_lemma3_modes(self, graph, stretch):
        spanner = greedy_spanner(graph, stretch)
        assert verify_lemma3_self_spanner(spanner) == lemma3_reference(spanner)

    def test_metric_closure_modes(self):
        metric = uniform_points(60, 2, seed=11)
        spanner = build_spanner("theta", metric, 1.5)
        assert verify_spanner_edges(spanner.subgraph, spanner.base, 1.5)
        assert verify_edges_reference(spanner.subgraph, spanner.base, 1.5).ok
        assert stretch_profile(spanner, exact=True) == profile_reference(spanner)[0]

    def test_is_t_spanner_of_modes(self, medium_random_graph):
        spanner = greedy_spanner(medium_random_graph, 2.0)
        mst = kruskal_mst(medium_random_graph)
        for candidate, expected in ((spanner.subgraph, True), (mst, None)):
            indexed = is_t_spanner_of(candidate, medium_random_graph, 2.0)
            reference = verify_edges_reference(candidate, medium_random_graph, 2.0).ok
            assert indexed == reference
            if expected is not None:
                assert indexed is expected

    def test_counters_are_shared_across_modes(self, small_random_graph):
        """Pair/edge counts (not settles — the algorithms differ) line up.

        The engine searches only from sources with a base edge that no
        light-enough subgraph edge of its own certifies."""
        spanner = greedy_spanner(small_random_graph, 2.0)
        indexed = verify_spanner_edges_detailed(spanner.subgraph, small_random_graph, 2.0)
        reference = verify_edges_reference(spanner.subgraph, small_random_graph, 2.0)
        assert indexed.ok and reference.ok
        assert indexed.edges_checked == reference.edges_checked
        subgraph = spanner.subgraph
        searched = {
            u
            for u, v, weight in small_random_graph.edges()
            if not subgraph.has_edge(u, v)
            or subgraph.weight(u, v) > 2.0 * weight * (1.0 + 1e-9)
        }
        assert indexed.sources == len(searched) < reference.sources
        _, stats_indexed = stretch_profile_detailed(spanner, exact=True)
        _, stats_reference = profile_reference(spanner)
        assert stats_indexed.sources == stats_reference.sources


def _corrupted(subgraph: WeightedGraph, stretch: float, case: str, pick: int) -> WeightedGraph:
    """A copy of ``subgraph`` broken the way ``case`` names (``pick`` chooses where)."""
    corrupted = subgraph.copy()
    edges = list(corrupted.edges())
    if not edges:
        return corrupted
    if case == "drop":  # one or two edges, so a single wrong verdict shows
        for u, v, _ in {edges[pick % len(edges)], edges[pick // 7 % len(edges)]}:
            corrupted.remove_edge(u, v)
    elif case == "reweight":
        u, v, weight = edges[pick % len(edges)]
        corrupted.add_edge(u, v, stretch * weight * (1.0 + 1.0 / (1 + pick % 8)))
    else:  # "disconnect": isolate one vertex
        vertex = list(corrupted.vertices())[pick % corrupted.number_of_vertices]
        for neighbour in list(corrupted.neighbours(vertex)):
            corrupted.remove_edge(vertex, neighbour)
    return corrupted


class TestEarlyStoppingCheck:
    """The per-source check (own-edge certificate, then one search that stops
    at its last pending target) against the per-edge reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        graph=dyadic_graphs,
        stretch=st.sampled_from([1.0, 1.5, 1.99, 2.0, 2.5]),
        case=st.sampled_from(["drop", "reweight", "disconnect"]),
        pick=st.integers(min_value=0, max_value=1_000),
        strings=st.booleans(),
    )
    def test_corrupted_spanners_match_the_reference(self, graph, stretch, case, pick, strings):
        if strings:
            graph = _string_relabelled(graph)
        spanner = greedy_spanner(graph, stretch)
        for candidate in (spanner.subgraph, _corrupted(spanner.subgraph, stretch, case, pick)):
            serial = verify_spanner_edges_detailed(candidate, graph, stretch, workers=1)
            assert serial.ok == verify_edges_reference(candidate, graph, stretch).ok
            assert serial.edges_checked == graph.number_of_edges
            sharded = verify_spanner_edges_detailed(candidate, graph, stretch, workers=2)
            assert sharded == serial

    @pytest.mark.parametrize("strings", [False, True])
    def test_overweight_own_edge_without_a_detour_fails(self, strings):
        """Regression: a subgraph edge certifies its base edge by its
        *weight*, not by its presence."""
        base = WeightedGraph(edges=[(0, 1, 1.0), (1, 2, 1.0)])
        subgraph = WeightedGraph(edges=[(0, 1, 2.5), (1, 2, 1.0)])
        if strings:
            base, subgraph = _string_relabelled(base), _string_relabelled(subgraph)
        result = verify_spanner_edges_detailed(subgraph, base, 2.0)
        assert not result.ok
        assert not verify_edges_reference(subgraph, base, 2.0).ok
        assert result.sources == 1  # (0, 1) needed a search; (1, 2) did not

    def test_overweight_own_edge_with_a_short_detour_passes(self):
        base = WeightedGraph(edges=[(0, 1, 1.0), (1, 2, 0.5), (0, 2, 0.5)])
        subgraph = WeightedGraph(edges=[(0, 1, 5.0), (1, 2, 0.5), (0, 2, 0.5)])
        result = verify_spanner_edges_detailed(subgraph, base, 2.0)
        assert result.ok and verify_edges_reference(subgraph, base, 2.0).ok
        assert (result.edges_checked, result.sources, result.settles) == (3, 1, 3)

    def test_unreachable_edge_passes_at_infinite_stretch(self):
        """Regression: a disconnected base edge has ``δ_H = ∞``, which is not
        above ``∞·w``, so ``t = inf`` accepts it (the per-edge reference and
        ``Spanner.is_valid`` always did); its stretch reads ``inf``."""
        base = WeightedGraph(edges=[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)])
        subgraph = WeightedGraph(vertices=[0, 1, 2], edges=[(0, 1, 1.0)])
        assert verify_spanner_edges(subgraph, base, math.inf)
        assert is_t_spanner_of(subgraph, base, math.inf)
        assert Spanner(base=base, subgraph=subgraph, stretch=math.inf).is_valid()
        assert verify_edges_reference(subgraph, base, math.inf).ok
        result = verify_spanner_edges_detailed(subgraph, base, math.inf)
        assert (result.witness, result.max_stretch) == (None, math.inf)
        failed = verify_spanner_edges_detailed(subgraph, base, 2.0)
        assert not failed.ok and failed.witness == (0, 2, 1.5)

    def test_light_own_edges_need_no_search(self, small_random_graph):
        result = verify_spanner_edges_detailed(small_random_graph, small_random_graph, 1.0)
        assert result == EdgeVerification(
            ok=True, edges_checked=small_random_graph.number_of_edges, sources=0, settles=0
        )


point_sets = st.sets(
    st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60)),
    min_size=3,
    max_size=16,
)


class TestMeasuredStretch:
    """``statistics(measure_stretch=True)`` reads the edge check's
    ``max_stretch`` at ``t = inf``: bit-identical to the seed per-edge loop."""

    @settings(max_examples=30, deadline=None)
    @given(
        graph=dyadic_graphs,
        stretch=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        case=st.sampled_from(["none", "drop", "reweight", "disconnect"]),
        pick=st.integers(min_value=0, max_value=1_000),
        strings=st.booleans(),
    )
    def test_graph_bases(self, graph, stretch, case, pick, strings):
        if strings:
            graph = _string_relabelled(graph)
        subgraph = greedy_spanner(graph, stretch).subgraph
        if case != "none":
            subgraph = _corrupted(subgraph, stretch, case, pick)
        spanner = Spanner(base=graph, subgraph=subgraph, stretch=stretch)
        measured = spanner.statistics(measure_stretch=True).measured_stretch
        assert measured == max_edge_stretch_reference(spanner)
        if case == "disconnect":
            assert measured == math.inf

    @settings(max_examples=20, deadline=None)
    @given(
        points=point_sets,
        builder=st.sampled_from(["greedy", "theta", "mst"]),
        stretch=st.sampled_from([1.1, 1.5, 2.0]),
    )
    def test_metric_closures(self, points, builder, stretch):
        metric = EuclideanMetric(np.array(sorted(points), dtype=float))
        spanner = build_spanner(builder, metric, stretch)
        assert isinstance(spanner.base, MetricClosure)
        measured = spanner.statistics(measure_stretch=True).measured_stretch
        assert measured == max_edge_stretch_reference(spanner)


class TestPairDedup:
    def test_string_vertices_count_each_pair_once(self):
        """Regression: the seed's ``target <= source`` skip only deduped ints,
        so string-labelled graphs counted every pair twice."""
        graph = WeightedGraph()
        graph.add_edge("a", "b", 1.0)
        graph.add_edge("b", "c", 1.0)
        graph.add_edge("c", "d", 1.0)
        spanner = greedy_spanner(graph, 2.0)
        for profile in (stretch_profile(spanner, exact=True), profile_reference(spanner)[0]):
            assert profile.pairs_checked == 6  # C(4, 2), not 12

    def test_int_vertices_unchanged(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        n = small_random_graph.number_of_vertices
        profile = stretch_profile(spanner, exact=True)
        assert profile.pairs_checked == n * (n - 1) // 2

    def test_orientation_is_shared_id_order(self):
        """Engine and reference measure each pair from its smaller shared-id
        endpoint, whatever the vertex insertion order."""
        graph = WeightedGraph()
        graph.add_edge(9, 2, 1.0)
        graph.add_edge(2, 5, 2.0)
        graph.add_edge(9, 5, 2.5)
        spanner = greedy_spanner(graph, 2.0)
        assert stretch_profile(spanner, exact=True) == profile_reference(spanner)[0]


class TestParallelDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(graph=dyadic_graphs, stretch=st.sampled_from([1.5, 2.0]))
    def test_profile_workers_identical(self, graph, stretch):
        spanner = greedy_spanner(graph, stretch)
        engine = VerificationEngine(graph, spanner.subgraph)
        baseline, stats_1 = stretch_profile_detailed(
            spanner, exact=True, workers=1, engine=engine
        )
        for workers in (2, 3):
            parallel, stats_n = stretch_profile_detailed(
                spanner, exact=True, workers=workers, engine=engine
            )
            assert parallel == baseline  # bit-identical floats
            assert stats_n.counters() == stats_1.counters()  # merged counters

    def test_verify_workers_identical(self, medium_random_graph):
        """Graph and metric-closure bases shard alike; at ``t = 1.05`` the
        theta spanner of the closure fails, so the witness is compared too."""
        graph_spanner = greedy_spanner(medium_random_graph, 2.0)
        metric_spanner = build_spanner("theta", uniform_points(60, 2, seed=11), 1.5)
        assert isinstance(metric_spanner.base, MetricClosure)
        for spanner, stretch, ok in (
            (graph_spanner, 2.0, True),
            (metric_spanner, 1.5, True),
            (metric_spanner, 1.05, False),
        ):
            baseline = verify_spanner_edges_detailed(
                spanner.subgraph, spanner.base, stretch, workers=1
            )
            assert baseline.ok is ok and (baseline.witness is None) is ok
            for workers in (2, 4):
                parallel = verify_spanner_edges_detailed(
                    spanner.subgraph, spanner.base, stretch, workers=workers
                )
                assert parallel == baseline

    def test_profile_sources_subset_is_exact_per_source(self, medium_random_graph):
        """A restricted source shard reproduces exactly the full sweep's rows
        for those sources (here: all sources, so the full profile)."""
        spanner = greedy_spanner(medium_random_graph, 2.0)
        vertices = list(medium_random_graph.vertices())
        full = stretch_profile(spanner, exact=True)
        assert stretch_profile(spanner, exact=True, sources=vertices) == full
        some = stretch_profile(spanner, exact=True, sources=vertices[:5])
        assert 0 < some.pairs_checked < full.pairs_checked


class TestMstFastPath:
    def test_indexed_prim_matches_kruskal(self, medium_random_graph):
        assert mst_weight_indexed(medium_random_graph) == pytest.approx(
            mst_weight(medium_random_graph)
        )

    def test_disconnected_raises(self):
        from repro.errors import DisconnectedGraphError

        graph = WeightedGraph(edges=[(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            mst_weight_indexed(graph)

    def test_metric_closure_keeps_dense_dispatch(self):
        from repro.metric.closure import MetricClosure

        closure = MetricClosure(uniform_points(40, 2, seed=3))
        assert mst_weight_indexed(closure) == pytest.approx(mst_weight(closure))


def test_engine_reuse_across_checks(small_random_graph):
    """One engine serves edge check, profile and sampled check identically."""
    spanner = greedy_spanner(small_random_graph, 2.0)
    engine = VerificationEngine(small_random_graph, spanner.subgraph)
    assert verify_spanner_edges(
        spanner.subgraph, small_random_graph, 2.0, engine=engine
    ) == verify_spanner_edges(spanner.subgraph, small_random_graph, 2.0)
    assert stretch_profile(spanner, exact=True, engine=engine) == stretch_profile(
        spanner, exact=True
    )
    assert verify_spanner_sampled(spanner, samples=30, seed=2, engine=engine) is True


def test_disconnected_subgraph_fails_verification(small_random_graph):
    """An empty subgraph spans nothing: inf distances must fail engine and reference."""
    empty = small_random_graph.empty_spanning_subgraph()
    assert not verify_spanner_edges(empty, small_random_graph, 100.0)
    assert not verify_edges_reference(empty, small_random_graph, 100.0).ok
