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
from hypothesis import given, settings, strategies as st

from oracles.coverage import PackedPairCoverage
from oracles.graph import indexed_ball
from oracles.greedy import ValueCacheOracle, value_cache_greedy
from repro.core.distance_oracle import (
    BoundedDijkstraOracle,
    CachedDijkstraOracle,
    ORACLE_FACTORIES,
)
from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.errors import VertexNotFoundError
from repro.graph.generators import random_connected_graph
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import pair_distance
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.generators import grid_points, uniform_points

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
        # A hit returns a certified bound (the largest harvested radius),
        # not the stored exact distance: the pair is not stored with a value.
        assert first == exact
        assert first <= second <= exact * 2

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
    """The greedy loop's non-decreasing cutoffs: every covered pair is a hit."""

    def test_greedy_enables_monotone_mode_and_counts_match_value_mode(self):
        """Hit/miss counts equal the value-cache reference's, and the settles
        run plus the settles a resumed ball restored equal its settles."""
        metric = uniform_points(60, 2, seed=47)
        streamed = greedy_spanner_of_metric(metric, 2.0, oracle="cached")
        spanner_graph, oracle = value_cache_greedy(metric.complete_graph(), 2.0)
        assert spanner_graph.same_edges(streamed.subgraph)
        assert float(oracle.cache_hits) == streamed.metadata["cache_hits"]
        assert float(oracle.cache_misses) == streamed.metadata["cache_misses"]
        assert streamed.metadata["balls_resumed"] > 0
        assert float(oracle.settled_count) == (
            streamed.metadata["dijkstra_settles"] + streamed.metadata["settles_resumed"]
        )

    def test_monotone_mode_reports_peak_bounds(self):
        metric = uniform_points(40, 2, seed=31)
        spanner = greedy_spanner_of_metric(metric, 2.0, oracle="cached")
        assert "peak_cached_bounds" in spanner.metadata
        # The value dictionary only ever holds edge bounds, far below the
        # ~n²/2 entries a value cache of every ball would accumulate.
        n = metric.size
        assert spanner.metadata["peak_cached_bounds"] < n * (n - 1) / 4

    def test_monotone_mode_answers_certify_the_verdict(self, small_random_graph):
        """Under non-decreasing cutoffs a hit may return a bound above the
        exact distance; the verdict (within / not within) must still match."""
        spanner_graph = small_random_graph.copy()
        oracle = CachedDijkstraOracle(spanner_graph)
        vertices = list(spanner_graph.vertices())
        pairs = [(vertices[i], vertices[j]) for i in range(6) for j in range(i + 1, 6)]
        queries = sorted(
            (pair_distance(spanner_graph, u, v), u, v) for u, v in pairs
        )
        for exact, u, v in queries:  # non-decreasing cutoffs
            cutoff = exact * 1.01
            answer = oracle.distance_within(u, v, cutoff)
            # The pair is genuinely within the cutoff, so the oracle must
            # certify it: any returned bound at most the cutoff is correct.
            assert answer <= cutoff


class TestAnyCutoffOrder:
    def test_cutoff_below_an_earlier_radius_is_answered_exactly(self):
        """A covered pair is not a hit when the cutoff drops below the
        radius that covered it: the oracle searches again and says ``inf``."""
        graph = WeightedGraph(edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        oracle = CachedDijkstraOracle(graph)
        assert oracle.distance_within(0, 3, 10.0) == 3.0  # covers (0, 2) at radius 10
        hits = oracle.cache_hits
        assert oracle.distance_within(0, 2, 1.5) == math.inf
        assert oracle.distance_within(2, 0, 2.0) == 2.0
        assert oracle.cache_hits == hits
        # Back at or above the largest radius, membership decides again.
        assert oracle.distance_within(0, 2, 10.0) <= 10.0
        assert oracle.cache_hits == hits + 1

    def test_vertex_first_seen_by_notify_gets_a_row(self):
        spanner = WeightedGraph(vertices=[0, 1])
        oracle = CachedDijkstraOracle(spanner)
        spanner.add_edge(1, "new", 2.0)
        oracle.notify_edge_added(1, "new", 2.0)
        spanner.add_edge(0, 1, 1.0)
        oracle.notify_edge_added(0, 1, 1.0)
        assert oracle.distance_within(0, "new", 5.0) == 3.0
        assert oracle.distance_within("new", 0, 2.5) == math.inf


#: Vertex labels for the greedy runs, so that the loop's dense ids differ
#: from the labels: reversed ints, strings and tuples.
LABELLINGS = {
    "int": lambda i: i,
    "reversed": lambda i: 99 - i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, str(i)),
}


@st.composite
def greedy_runs(draw):
    """A small connected graph, a stretch and a repair-style warm start.

    Vertex ``i`` is labelled by one of :data:`LABELLINGS`.  Some vertices
    are inserted up front in a shuffled order, the others are first created
    by ``add_edge``, and up to two isolated vertices are added.  ``split``
    cuts the canonical edge order: the greedy spanner's edges before it are
    seeded, the edges after it are replayed (``split == 0`` is a plain run).
    """
    n = draw(st.integers(min_value=2, max_value=14))
    weights = st.one_of(
        st.sampled_from((0.5, 1.0, 1.5, 2.0)),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    label = LABELLINGS[draw(st.sampled_from(sorted(LABELLINGS)))]
    upfront = draw(st.lists(st.integers(0, n + 1), unique=True))
    graph = WeightedGraph(vertices=[label(i) for i in upfront])
    for isolated in (n, n + 1):
        if draw(st.booleans()):
            graph.add_vertex(label(isolated))
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        graph.add_edge(label(u), label(v), draw(weights))
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(label(u), label(v)):
            graph.add_edge(label(u), label(v), draw(weights))
    stretch = draw(st.sampled_from((1.0, 1.2, 1.5, 2.0, 3.0, 5.0)))
    split = draw(st.integers(min_value=0, max_value=graph.number_of_edges))
    return graph, stretch, split


def assert_matches_value_cache(spanner, reference, oracle, examined):
    """``H.edges()`` in order, ``w(H)`` bit for bit and every counter the
    reference keeps (settles once the resumed ones are added back)."""
    metadata = spanner.metadata
    assert list(spanner.subgraph.edges()) == list(reference.edges())
    assert spanner.weight.hex() == reference.total_weight().hex()
    assert metadata["edges_examined"] == examined
    assert metadata["distance_queries"] == oracle.query_count
    assert metadata["cache_hits"] == oracle.cache_hits
    assert metadata["cache_misses"] == oracle.cache_misses
    assert metadata["dijkstra_settles"] + metadata["settles_resumed"] == oracle.settled_count
    added = metadata["edges_added"] + metadata.get("edges_seeded", 0)
    assert added == reference.number_of_edges


@settings(max_examples=120, deadline=None)
@given(run=greedy_runs())
def test_cached_oracle_matches_the_value_cache_reference(run):
    """Spanner, hits and misses equal the value-cache reference's, from the
    graph's own order, from an ``edges=`` suffix and with a warm-start
    prefix; so do the settles once the ones a resumed ball restored are
    added back."""
    graph, stretch, split = run
    order = graph.edges_sorted_by_weight()
    full = greedy_spanner(graph, stretch)
    reference, oracle = value_cache_greedy(graph, stretch)
    assert_matches_value_cache(full, reference, oracle, len(order))
    seeds = [(u, v, w) for u, v, w in order[:split] if full.subgraph.has_edge(u, v)]
    suffix = order[split:]
    spanner = greedy_spanner(
        graph, stretch, edges=suffix, seed_edges=seeds if split else None
    )
    reference, oracle = value_cache_greedy(graph, stretch, edges=suffix, seed_edges=seeds)
    assert_matches_value_cache(spanner, reference, oracle, len(suffix))
    assert spanner.subgraph.same_edges(full.subgraph)
    bounded = greedy_spanner(graph, stretch, oracle="bounded")
    assert list(bounded.subgraph.edges()) == list(full.subgraph.edges())


@pytest.mark.parametrize("oracle", ALL_STRATEGIES)
def test_edges_naming_an_unknown_vertex_raise(oracle):
    graph = WeightedGraph(edges=[("a", "b", 1.0), ("b", "c", 1.0)])
    for edges, missing in (([("a", "z", 2.0)], "z"), ([("z", "a", 2.0)], "z")):
        with pytest.raises(VertexNotFoundError) as raised:
            greedy_spanner(graph, 2.0, oracle=oracle, edges=edges)
        assert raised.value.vertex == missing


@pytest.mark.parametrize("oracle", ALL_STRATEGIES)
def test_self_pair_is_examined_but_not_added(oracle):
    graph = WeightedGraph(edges=[("a", "b", 1.0), ("b", "c", 1.0)])
    edges = [("a", "a", 0.5), ("a", "b", 1.0), ("b", "b", 1.0), ("b", "c", 1.0)]
    spanner = greedy_spanner(graph, 2.0, oracle=oracle, edges=edges)
    assert list(spanner.subgraph.edges()) == [("a", "b", 1.0), ("b", "c", 1.0)]
    assert spanner.metadata["edges_examined"] == 4
    assert spanner.metadata["edges_added"] == 2
    assert spanner.metadata["distance_queries"] == 4


@st.composite
def oracle_sessions(draw):
    """A small spanner and a run of queries with arbitrary cutoffs (drops
    below earlier radii included), with edge insertions interleaved."""
    n = draw(st.integers(min_value=2, max_value=10))
    weights = st.sampled_from((1.0, 2.0, 3.0))
    vertices = st.integers(min_value=0, max_value=n - 1)
    spanner_edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v, draw(weights))
        for v in range(1, n)
        if draw(st.booleans())
    ]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        u, v = draw(vertices), draw(vertices)
        if draw(st.integers(0, 4)) == 0:
            ops.append(("add", u, v, draw(weights)))
        else:
            ops.append(("query", u, v, float(draw(st.integers(0, 12)))))
    return n, spanner_edges, ops


@settings(max_examples=150, deadline=None)
@given(session=oracle_sessions())
def test_cached_oracle_verdicts_match_bounded_under_any_cutoff_order(session):
    """Resumed, fresh and cached answers all give the bounded oracle's verdict."""
    n, spanner_edges, ops = session
    spanner = WeightedGraph(vertices=range(n))
    for u, v, weight in spanner_edges:
        spanner.add_edge(u, v, weight)
    cached = CachedDijkstraOracle(spanner)
    bounded = BoundedDijkstraOracle(spanner)
    for kind, u, v, value in ops:
        if kind == "add":
            if u != v and not spanner.has_edge(u, v):
                spanner.add_edge(u, v, value)
                cached.notify_edge_added(u, v, value)
            continue
        exact = bounded.distance_within(u, v, value)
        answer = cached.distance_within(u, v, value)
        assert answer <= value or answer == math.inf
        assert (answer <= value) == (exact <= value)
        if exact <= value:
            assert exact <= answer


@st.composite
def cutoff_walks(draw):
    """A small spanner and queries whose cutoffs walk up and down (each step
    rises or falls by up to 3), with edge insertions interleaved."""
    n = draw(st.integers(min_value=2, max_value=10))
    weights = st.sampled_from((1.0, 2.0, 3.0))
    vertices = st.integers(min_value=0, max_value=n - 1)
    spanner_edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v, draw(weights))
        for v in range(1, n)
        if draw(st.booleans())
    ]
    ops = []
    cutoff = float(draw(st.integers(0, 6)))
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        u, v = draw(vertices), draw(vertices)
        if draw(st.integers(0, 4)) == 0:
            ops.append(("add", u, v, draw(weights)))
        else:
            cutoff = max(0.0, cutoff + draw(st.integers(-3, 3)))
            ops.append(("query", u, v, cutoff))
    return n, spanner_edges, ops


@settings(max_examples=150, deadline=None)
@given(walk=cutoff_walks())
def test_ball_sets_match_packed_pairs_and_value_cache_under_cutoff_walks(walk):
    """Rising and falling cutoffs with edges added in between.  After every
    query the oracle's ``covers()`` equals a packed-pair set harvested from
    fresh balls of its misses, and every answer gives the value-cache
    reference's verdict with a bound no smaller than the true distance."""
    n, spanner_edges, ops = walk
    spanner = WeightedGraph(vertices=range(n))
    for u, v, weight in spanner_edges:
        spanner.add_edge(u, v, weight)
    cached = CachedDijkstraOracle(spanner)  # ids are the vertices: range(n)
    value = ValueCacheOracle(spanner)
    bounded = BoundedDijkstraOracle(spanner)
    packed = PackedPairCoverage()
    for kind, u, v, number in ops:
        if kind == "add":
            if u != v and not spanner.has_edge(u, v):
                spanner.add_edge(u, v, number)
                cached.notify_edge_added(u, v, number)
                value.notify_edge_added(u, v, number)
            continue
        misses = cached.cache_misses
        answer = cached.distance_within(u, v, number)
        if cached.cache_misses > misses:
            packed.harvest(u, indexed_ball(IndexedGraph.from_weighted_graph(spanner), u, number))
        expected = value.distance_within(u, v, number)
        exact = bounded.distance_within(u, v, number)
        assert (answer <= number) == (expected <= number) == (exact <= number)
        if answer <= number:
            assert exact <= answer and exact <= expected
        else:
            assert answer == math.inf
        cover = cached._cover
        for x in range(n):
            for y in range(n):
                assert cover.covers(x, y) == packed.covers(x, y)


@pytest.mark.parametrize("stretch", [1.0, 1.5])
def test_grid_metric_equals_the_value_cache_reference(stretch):
    """The 6×6 grid (every distance tied many times over) at t=1 and t=1.5,
    cold and from a warm start: same spanner, hits and misses, and settles
    once the resumed ones are added back."""
    graph = grid_points(6).complete_graph()
    order = graph.edges_sorted_by_weight()
    full = greedy_spanner(graph, stretch)
    split = len(order) // 3
    seeds = [(u, v, w) for u, v, w in order[:split] if full.subgraph.has_edge(u, v)]
    for edges, seed_edges in ((None, None), (order[split:], seeds)):
        spanner = greedy_spanner(graph, stretch, edges=edges, seed_edges=seed_edges)
        reference, oracle = value_cache_greedy(
            graph, stretch, edges=edges, seed_edges=seed_edges or ()
        )
        metadata = spanner.metadata
        assert spanner.subgraph.same_edges(reference)
        assert spanner.subgraph.same_edges(full.subgraph)
        assert metadata["cache_hits"] == oracle.cache_hits
        assert metadata["cache_misses"] == oracle.cache_misses
        assert metadata["dijkstra_settles"] + metadata["settles_resumed"] == oracle.settled_count
    assert full.metadata["balls_resumed"] > 0
