"""Tests for self-healing spanner repair: replay equals rebuild, bit for bit.

The module invariant of :mod:`repro.core.repair` is that warm-starting
greedy with the kept prefix and replaying only the suffix after the first
failed spanner edge reproduces greedy on the surviving graph exactly.  The
property tests here assert that on random graphs **including tie-heavy
dyadic weights**, where the canonical ``(weight, repr(u), repr(v))``
tie-break order is actually load-bearing; any divergence between repair and
rebuild is an exact edge-set mismatch, never tolerance noise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.greedy import greedy_spanner
from repro.core.repair import repair_spanner, surviving_base
from repro.errors import EdgeNotFoundError, UnrepairableSpannerError
from repro.graph.weighted_graph import WeightedGraph

TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def graphs_and_failures(draw, max_vertices: int = 12):
    """A connected base graph plus a non-empty set of edges to fail."""
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    tie_heavy = draw(st.booleans())
    if tie_heavy:
        weights = st.sampled_from(TIE_HEAVY_WEIGHTS)
    else:
        weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    graph = WeightedGraph(vertices=range(n))
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        graph.add_edge(parent, v, draw(weights))
    extra = draw(st.integers(min_value=1, max_value=2 * n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(weights))
    edges = [(u, v) for u, v, _ in graph.edges()]
    count = draw(st.integers(min_value=1, max_value=max(1, len(edges) // 3)))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(edges) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return graph, [edges[i] for i in indices]


@settings(max_examples=80, deadline=None)
@given(graphs_and_failures(), st.sampled_from((1.2, 1.5, 2.0)))
def test_repair_equals_rebuild_bit_for_bit(data, stretch):
    """The repaired edge set is exactly greedy(G − F), for any failure set."""
    graph, failures = data
    spanner = greedy_spanner(graph, stretch)
    result = repair_spanner(spanner, failures, cross_check=True)
    assert result.matches_rebuild is True
    assert result.verified is True
    rebuilt = greedy_spanner(surviving_base(graph, set(
        (u, v) if repr(u) <= repr(v) else (v, u) for u, v in failures
    )), stretch)
    assert result.spanner.subgraph.same_edges(rebuilt.subgraph)


@settings(max_examples=40, deadline=None)
@given(graphs_and_failures())
def test_repair_identical_across_oracles(data):
    """Every oracle strategy repairs to the same edge set (and verdicts)."""
    graph, failures = data
    spanner = greedy_spanner(graph, 1.5)
    results = [
        repair_spanner(spanner, failures, oracle=name)
        for name in ("bounded", "cached")
    ]
    first = results[0].spanner.subgraph
    for result in results[1:]:
        assert result.spanner.subgraph.same_edges(first)
        assert result.kept_edges == results[0].kept_edges
        assert result.edges_added == results[0].edges_added


class TestRepairMechanics:
    def _instance(self):
        graph = WeightedGraph()
        # A 5-cycle with one heavy chord greedy rejects at t=2.
        for i in range(5):
            graph.add_edge(i, (i + 1) % 5, 1.0)
        # δ_H(0, 2) = 2 ≤ 2·1.4 → rejected; but once (0, 1) fails the cycle
        # path grows to 3 > 2·1.4, so repair must admit the chord.
        graph.add_edge(0, 2, 1.4)
        return graph

    def test_noop_when_failed_edges_were_rejected(self):
        graph = self._instance()
        spanner = greedy_spanner(graph, 2.0)
        assert not spanner.subgraph.has_edge(0, 2)
        result = repair_spanner(spanner, [(0, 2)], cross_check=True)
        assert result.failed_spanner_edges == 0
        assert result.replayed_edges == 0
        assert result.repair_settles == 0.0
        assert result.matches_rebuild is True
        assert result.spanner.subgraph.same_edges(spanner.subgraph)
        # The repaired spanner is rebased onto the surviving graph.
        assert not result.spanner.base.has_edge(0, 2)

    def test_repair_patches_around_failed_spanner_edge(self):
        graph = self._instance()
        spanner = greedy_spanner(graph, 2.0)
        result = repair_spanner(spanner, [(0, 1)], cross_check=True)
        assert result.failed_spanner_edges == 1
        assert result.matches_rebuild is True
        assert result.verified is True
        # The rejected chord becomes necessary once the cycle is cut.
        assert result.spanner.subgraph.has_edge(0, 2)
        assert result.spanner.algorithm == "greedy-repair"

    def test_repaired_spanner_is_repairable_again(self):
        graph = self._instance()
        spanner = greedy_spanner(graph, 2.0)
        once = repair_spanner(spanner, [(0, 1)], cross_check=True)
        twice = repair_spanner(once.spanner, [(2, 3)], cross_check=True)
        assert twice.matches_rebuild is True

    def test_duplicate_and_reversed_failures_collapse(self):
        graph = self._instance()
        spanner = greedy_spanner(graph, 2.0)
        result = repair_spanner(spanner, [(0, 1), (1, 0), (0, 1)])
        assert result.failed_edges == 1

    def test_unknown_edge_rejected(self):
        spanner = greedy_spanner(self._instance(), 2.0)
        with pytest.raises(EdgeNotFoundError):
            repair_spanner(spanner, [(0, 3)])

    def test_non_greedy_spanner_rejected(self):
        spanner = greedy_spanner(self._instance(), 2.0)
        spanner.algorithm = "theta"
        with pytest.raises(UnrepairableSpannerError):
            repair_spanner(spanner, [(0, 1)])

    def test_counters_surface_in_row(self):
        spanner = greedy_spanner(self._instance(), 2.0)
        result = repair_spanner(spanner, [(0, 1)], cross_check=True)
        row = result.counters()
        for key in (
            "failed_edges",
            "failed_spanner_edges",
            "kept_edges",
            "replayed_edges",
            "repair_edges_added",
            "repair_settles",
            "repair_queries",
            "verify_settles",
            "rebuild_settles",
        ):
            assert key in row

    def test_spanner_repair_method_delegates(self):
        spanner = greedy_spanner(self._instance(), 2.0)
        result = spanner.repair([(0, 1)], cross_check=True)
        assert result.matches_rebuild is True
