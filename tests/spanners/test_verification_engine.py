"""Property tests for the indexed batch verification engine.

Three contracts are driven over random inputs:

* **reference equivalence** — the batch engine and the seed per-pair
  reference (``tests/oracles/verification.py``) agree on every verdict
  (edge, Lemma 3) and produce *bit-identical* stretch-profile
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
  counters for 1 and N workers;
* **metric block kernel** — on metric bases the lockstep block kernel
  reports every ``EdgeVerification`` field exactly as a per-source loop of
  the heap kernel over the same engine, whatever the blocks, shards and
  metric row source.
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
)

from repro.core.greedy import greedy_spanner
from repro.core.optimality import verify_lemma3_self_spanner
from repro.core.spanner import Spanner
from repro.graph.generators import random_connected_graph
from repro.graph.mst import kruskal_mst, mst_weight, mst_weight_indexed
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import ExplicitMetric
from repro.metric.closure import MetricClosure
from repro.metric.euclidean import EuclideanMetric
from repro.metric.generators import uniform_points
from repro.spanners import verification
from repro.spanners.registry import build_spanner
from repro.spanners.verification import (
    EdgeVerification,
    VerificationEngine,
    _verify_one_source,
    stretch_profile,
    verify_spanner_edges,
    verify_spanner_edges_detailed,
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


def _lemma3_candidates(
    graph: WeightedGraph, stretch: float, extra: list[int]
) -> list[WeightedGraph]:
    """The greedy spanner, it plus the base edges picked by ``extra``, and the base."""
    greedy = greedy_spanner(graph, stretch).subgraph
    padded = greedy.copy()
    base_edges = list(graph.edges())
    for pick in extra:
        u, v, weight = base_edges[pick % len(base_edges)]
        padded.add_edge(u, v, weight)
    return [greedy, padded, graph]


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
        assert stretch_profile(spanner)[0] == profile_reference(spanner)[0]  # bit-identical

    @settings(max_examples=15, deadline=None)
    @given(graph=dyadic_graphs, stretch=st.sampled_from([1.5, 2.0]))
    def test_string_vertex_graphs(self, graph, stretch):
        relabelled = _string_relabelled(graph)
        spanner = greedy_spanner(relabelled, stretch)
        assert verify_spanner_edges(
            spanner.subgraph, relabelled, stretch
        ) == verify_edges_reference(spanner.subgraph, relabelled, stretch).ok
        assert stretch_profile(spanner)[0] == profile_reference(spanner)[0]

    @settings(max_examples=20, deadline=None)
    @given(
        graph=dyadic_graphs,
        stretch=st.sampled_from([1.5, 2.0, math.inf]),
        extra=st.lists(st.integers(min_value=0, max_value=10_000), max_size=3),
    )
    def test_lemma3_modes(self, graph, stretch, extra):
        """Greedy spanners pass; greedy plus extra base edges and the base
        graph itself may not — every verdict must be the brute force's."""
        for candidate in _lemma3_candidates(graph, stretch, extra):
            spanner = Spanner(base=graph, subgraph=candidate, stretch=stretch)
            assert verify_lemma3_self_spanner(spanner) == lemma3_reference(spanner)

    def test_lemma3_both_verdicts_occur(self):
        """Fixed inputs where both verdicts occur.  On the triangle ``u–a 1,
        a–b 1, u–b 1.5`` at ``t = 2``, ``u–b`` is redundant only via
        ``u–a–b``, a detour that leaves ``u`` by another of its own edges."""
        triangle = WeightedGraph()
        triangle.add_edge("u", "a", 1.0)
        triangle.add_edge("a", "b", 1.0)
        triangle.add_edge("u", "b", 1.5)
        assert verify_lemma3_self_spanner(Spanner(triangle, triangle, 2.0)) is False
        verdicts = set()
        for seed in range(6):
            graph = _dyadic_graph(10, seed, [3, 5, 8, 11, 16])
            for stretch in (1.5, 2.0, math.inf):
                for candidate in _lemma3_candidates(graph, stretch, [seed, 7 * seed + 1]):
                    spanner = Spanner(base=graph, subgraph=candidate, stretch=stretch)
                    verdict = verify_lemma3_self_spanner(spanner)
                    assert verdict == lemma3_reference(spanner)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_metric_closure_modes(self):
        metric = uniform_points(60, 2, seed=11)
        spanner = build_spanner("theta", metric, 1.5)
        assert verify_spanner_edges(spanner.subgraph, spanner.base, 1.5)
        assert verify_edges_reference(spanner.subgraph, spanner.base, 1.5).ok
        assert stretch_profile(spanner)[0] == profile_reference(spanner)[0]

    def test_is_t_spanner_of_modes(self, medium_random_graph):
        spanner = greedy_spanner(medium_random_graph, 2.0)
        mst = kruskal_mst(medium_random_graph)
        for candidate, expected in ((spanner.subgraph, True), (mst, None)):
            indexed = verify_spanner_edges(candidate, medium_random_graph, 2.0)
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
        _, stats_indexed = stretch_profile(spanner)
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
        for profile, _ in (stretch_profile(spanner), profile_reference(spanner)):
            assert profile.pairs_checked == 6  # C(4, 2), not 12

    def test_int_vertices_unchanged(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        n = small_random_graph.number_of_vertices
        profile, _ = stretch_profile(spanner)
        assert profile.pairs_checked == n * (n - 1) // 2

    def test_orientation_is_shared_id_order(self):
        """Engine and reference measure each pair from its smaller shared-id
        endpoint, whatever the vertex insertion order."""
        graph = WeightedGraph()
        graph.add_edge(9, 2, 1.0)
        graph.add_edge(2, 5, 2.0)
        graph.add_edge(9, 5, 2.5)
        spanner = greedy_spanner(graph, 2.0)
        assert stretch_profile(spanner)[0] == profile_reference(spanner)[0]


class TestParallelDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(graph=dyadic_graphs, stretch=st.sampled_from([1.5, 2.0]))
    def test_profile_workers_identical(self, graph, stretch):
        spanner = greedy_spanner(graph, stretch)
        engine = VerificationEngine(graph, spanner.subgraph)
        baseline, stats_1 = stretch_profile(spanner, workers=1, engine=engine)
        for workers in (2, 3):
            parallel, stats_n = stretch_profile(spanner, workers=workers, engine=engine)
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
        full = stretch_profile(spanner)
        assert stretch_profile(spanner, sources=vertices) == full
        some, stats = stretch_profile(spanner, sources=vertices[:5])
        assert 0 < some.pairs_checked < full[0].pairs_checked
        assert stats.sources == 5


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
    """One engine serves the edge check and the profile identically."""
    spanner = greedy_spanner(small_random_graph, 2.0)
    engine = VerificationEngine(small_random_graph, spanner.subgraph)
    assert verify_spanner_edges(
        spanner.subgraph, small_random_graph, 2.0, engine=engine
    ) == verify_spanner_edges(spanner.subgraph, small_random_graph, 2.0)
    assert stretch_profile(spanner, engine=engine) == stretch_profile(spanner)


def test_disconnected_subgraph_fails_verification(small_random_graph):
    """An empty subgraph spans nothing: inf distances must fail engine and reference."""
    empty = small_random_graph.empty_spanning_subgraph()
    assert not verify_spanner_edges(empty, small_random_graph, 100.0)
    assert not verify_edges_reference(empty, small_random_graph, 100.0).ok


class _RepeatedPoints(EuclideanMetric):
    """Euclidean points that may repeat: zero-distance pairs, vectorized rows."""

    def __init__(self, coordinates) -> None:
        self._coordinates = np.asarray(coordinates, dtype=float)
        self._points = list(range(self._coordinates.shape[0]))


def _metric_of(points: list[tuple[int, int]], vectorized: bool):
    """The points as a metric with ``block_distances``, or as an explicit
    table over string labels that has neither it nor ``distances_from``."""
    metric = _RepeatedPoints(points)
    if vectorized:
        return metric
    n = len(points)
    return ExplicitMetric(
        [f"p{i}" for i in range(n)],
        {(f"p{i}", f"p{j}"): metric.distance(i, j) for i in range(n) for j in range(i + 1, n)},
    )


def _per_source_loop(
    engine: VerificationEngine, t: float, tolerance: float = 1e-9
) -> EdgeVerification:
    """The heap kernel on a metric base: one ``_verify_one_source`` per source
    over its row to larger ids, zero-distance pairs skipped."""
    witness = None
    worst = 1.0
    edges = sources = settles = 0
    for source_id in range(engine.n - 1):
        tail = engine.base_row(source_id)[0][source_id + 1 :]
        targets = np.flatnonzero(tail > 0.0) + (source_id + 1)
        failed, stretch, spent = _verify_one_source(
            engine, source_id, targets.tolist(), tail[tail > 0.0].tolist(), t, tolerance
        )
        edges += len(targets)
        sources += spent > 0
        settles += spent
        worst = max(worst, stretch)
        if failed is not None and witness is None:
            vertices = engine.vertices
            witness = (vertices[source_id], vertices[failed[0]], failed[1])
    return EdgeVerification(witness is None, edges, sources, settles, witness, worst)


def _metric_subgraph(closure: MetricClosure, case: str, pick: int) -> WeightedGraph:
    """A greedy 1.5-spanner of the closure's positive pairs, broken as ``case`` says."""
    points = list(closure.vertices())
    positive = WeightedGraph(vertices=points)
    for index, u in enumerate(points):
        for v in points[index + 1 :]:
            weight = closure.metric.distance(u, v)
            if weight > 0.0:
                positive.add_edge(u, v, weight)
    subgraph = greedy_spanner(positive, 1.5).subgraph
    edges = list(subgraph.edges())
    if case == "drop" and edges:
        for index in (pick, pick // 3, pick // 7):
            u, v, _ = edges[index % len(edges)]
            if subgraph.has_edge(u, v):
                subgraph.remove_edge(u, v)
    elif case == "disconnect":
        vertex = list(subgraph.vertices())[pick % subgraph.number_of_vertices]
        for neighbour in list(subgraph.neighbours(vertex)):
            subgraph.remove_edge(vertex, neighbour)
    elif case == "complete":
        subgraph = positive
    return subgraph


grid_points = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)),
    min_size=2,
    max_size=24,
)


class TestMetricBlockKernel:
    """The lockstep block kernel against the per-source heap kernel."""

    @settings(max_examples=60, deadline=None)
    @given(
        points=grid_points,
        case=st.sampled_from(["none", "drop", "disconnect", "complete"]),
        pick=st.integers(min_value=0, max_value=1_000),
        stretch=st.sampled_from([1.0, 1.3, 1.5, math.inf]),
        vectorized=st.booleans(),
        block_rows=st.sampled_from([1, 3, None]),
    )
    def test_every_field_matches_the_heap_kernel(
        self, points, case, pick, stretch, vectorized, block_rows
    ):
        closure = MetricClosure(_metric_of(points, vectorized))
        subgraph = _metric_subgraph(closure, case, pick)
        engine = VerificationEngine(closure, subgraph)
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:  # several blocks, down to one source each
                patch.setattr(verification, "BLOCK_CELLS", block_rows * engine.n)
            block = verify_spanner_edges_detailed(
                subgraph, closure, stretch, workers=1, engine=engine
            )
        assert block == _per_source_loop(engine, stretch)

    def test_failures_duplicates_and_infinite_stretch_occur(self):
        """The property above sees failing, passing and ``inf`` reports and
        skips zero-distance pairs (guards against a vacuous strategy)."""
        points = [(0, 0), (3, 0), (3, 0), (0, 4), (6, 8), (1, 1), (5, 5), (0, 0)]
        closure = MetricClosure(_metric_of(points, vectorized=True))
        assert closure.metric.distance(1, 2) == 0.0
        seen = set()
        for case in ("none", "drop", "disconnect"):
            subgraph = _metric_subgraph(closure, case, 5)
            for stretch in (1.5, math.inf):
                report = verify_spanner_edges_detailed(subgraph, closure, stretch)
                assert report == _per_source_loop(VerificationEngine(closure, subgraph), stretch)
                assert report.edges_checked == 28 - 2  # two duplicate pairs
                seen.add((report.ok, report.max_stretch == math.inf))
        assert {(True, False), (False, False), (True, True)} <= seen

    def test_target_exactly_at_its_bound_settles(self):
        """A detour of exactly ``t·w`` at zero tolerance is the search's
        cutoff: it settles and passes.  A hair less stretch fails, and so do
        ``t = 0`` and ``t = -inf``, where only the source settles."""
        path = WeightedGraph(edges=[(0, 1, 2.0), (1, 2, 2.0)])
        line = MetricClosure(EuclideanMetric([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]))
        cases = ((1.0, True), (math.nextafter(1.0, 0.0), False), (0.0, False), (-math.inf, False))
        for stretch, ok in cases:
            report = verify_spanner_edges_detailed(path, line, stretch, tolerance=0.0)
            assert report == _per_source_loop(VerificationEngine(line, path), stretch, 0.0)
            assert report.ok is ok

    def test_complete_subgraph_searches_nothing(self):
        closure = MetricClosure(uniform_points(40, 2, seed=5))
        report = verify_spanner_edges_detailed(_metric_subgraph(closure, "complete", 0), closure, 1.0)
        assert report == EdgeVerification(ok=True, edges_checked=780, sources=0, settles=0)

    @pytest.mark.parametrize("block_rows", [2, None])
    def test_shards_and_blocks(self, monkeypatch, block_rows):
        """``workers=2`` shards start mid-range, so their blocks are not the
        serial run's; a small block constant cuts each shard into many."""
        spanner = build_spanner("theta", uniform_points(60, 2, seed=11), 1.5)
        if block_rows is not None:
            monkeypatch.setattr(verification, "BLOCK_CELLS", block_rows * 60)
        for stretch in (1.05, 1.3, 1.5, math.inf):
            engine = VerificationEngine(spanner.base, spanner.subgraph)
            reference = _per_source_loop(engine, stretch)
            for workers in (1, 2):
                report = verify_spanner_edges_detailed(
                    spanner.subgraph, spanner.base, stretch, workers=workers
                )
                assert report == reference

    def test_metric_bases_run_only_the_block_kernel(self, monkeypatch, small_random_graph):
        """Metric bases never reach the heap kernel; graph bases still do."""
        calls = []

        def counting(*args):
            calls.append(args[1])
            return _verify_one_source(*args)

        monkeypatch.setattr(verification, "_verify_one_source", counting)
        metric_spanner = build_spanner("greedy", uniform_points(50, 2, seed=2), 1.5)
        assert verify_spanner_edges(metric_spanner.subgraph, metric_spanner.base, 1.5)
        assert calls == []
        graph_spanner = greedy_spanner(small_random_graph, 1.5)
        verify_spanner_edges(graph_spanner.subgraph, small_random_graph, 1.2)
        assert calls
