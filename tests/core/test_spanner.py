"""Unit tests for the Spanner container and its statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.greedy import greedy_spanner
from repro.core.spanner import Spanner
from repro.errors import StretchViolationError
from repro.graph.generators import path_graph, random_connected_graph
from repro.graph.mst import kruskal_mst, mst_weight
from repro.graph.shortest_paths import pair_distance
from repro.spanners.trivial import mst_spanner
from repro.spanners.verification import stretch_profile, verify_spanner_edges_detailed


def _assert_real_witness(spanner: Spanner, error: StretchViolationError) -> None:
    """The error names a base edge, its weight and its exact spanner distance."""
    u, v = error.u, error.v
    assert spanner.base.has_edge(u, v)
    assert error.original_distance == spanner.base.weight(u, v)
    assert error.spanner_distance == pair_distance(spanner.subgraph, u, v)
    assert error.spanner_distance > error.stretch * error.original_distance


class TestMeasures:
    def test_size_weight_degree(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        assert spanner.number_of_edges == spanner.subgraph.number_of_edges
        assert spanner.weight == pytest.approx(spanner.subgraph.total_weight())
        assert spanner.max_degree == spanner.subgraph.max_degree()

    def test_lightness_of_mst_is_one(self, small_random_graph):
        assert mst_spanner(small_random_graph).lightness() == pytest.approx(1.0)

    def test_lightness_at_least_one(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 1.5)
        assert spanner.lightness() >= 1.0 - 1e-9

    def test_lightness_definition(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        expected = spanner.weight / mst_weight(small_random_graph)
        assert spanner.lightness() == pytest.approx(expected)

    def test_statistics_row(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        stats = spanner.statistics(measure_stretch=True)
        row = stats.as_row()
        assert row["n"] == small_random_graph.number_of_vertices
        assert row["edges"] == spanner.number_of_edges
        assert row["lightness"] == pytest.approx(spanner.lightness())
        assert row["measured_stretch"] <= 2.0 + 1e-9


class TestStretchMeasurement:
    def test_stretch_of_pair(self, triangle_graph):
        spanner = greedy_spanner(triangle_graph, 1.0)
        # Edge a-c was dropped; its stretch is detour/weight = 3/3... the base
        # distance between a and c is min(4, 3) = 3, so stretch is exactly 1.
        assert not spanner.subgraph.has_edge("a", "c")
        assert stretch_profile(spanner)[0].max_stretch == pytest.approx(1.0)

    def test_max_stretch_over_edges_at_most_bound(self, medium_random_graph):
        for t in (1.5, 3.0):
            spanner = greedy_spanner(medium_random_graph, t)
            report = verify_spanner_edges_detailed(
                spanner.subgraph, medium_random_graph, math.inf
            )
            assert report.max_stretch <= t + 1e-9

    def test_max_stretch_exact_ge_edge_stretch(self, small_random_graph):
        spanner = greedy_spanner(small_random_graph, 2.0)
        over_edges = spanner.statistics(measure_stretch=True).measured_stretch
        exact = stretch_profile(spanner)[0].max_stretch
        assert exact >= over_edges - 1e-9
        assert exact <= 2.0 + 1e-9

    def test_verify_stretch_raises_on_bad_spanner(self, small_random_graph):
        mst = kruskal_mst(small_random_graph)
        fake = Spanner(base=small_random_graph, subgraph=mst, stretch=1.01)
        # An MST is almost never a 1.01-spanner of a dense random graph.
        with pytest.raises(StretchViolationError) as raised:
            fake.verify_stretch()
        assert not fake.is_valid()
        _assert_real_witness(fake, raised.value)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
        t=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        pick=st.integers(min_value=0, max_value=1_000),
    )
    def test_verify_stretch_names_a_dropped_greedy_edge(self, n, seed, t, pick):
        """By Lemma 3 no greedy edge is redundant, so dropping one breaks the
        spanner, and the error's witness is a real failing base edge."""
        base = random_connected_graph(n, 0.5, seed=seed)
        greedy = greedy_spanner(base, t)
        dropped = greedy.subgraph.copy()
        u, v, _ = list(dropped.edges())[pick % dropped.number_of_edges]
        dropped.remove_edge(u, v)
        broken = Spanner(base=base, subgraph=dropped, stretch=t)
        with pytest.raises(StretchViolationError) as raised:
            broken.verify_stretch()
        _assert_real_witness(broken, raised.value)

    def test_verify_stretch_passes_for_identity(self, small_random_graph):
        spanner = Spanner(
            base=small_random_graph, subgraph=small_random_graph.copy(), stretch=1.0
        )
        spanner.verify_stretch()
        assert spanner.is_valid()

    def test_path_graph_spanner_statistics(self):
        tree = path_graph(6)
        spanner = Spanner(base=tree, subgraph=tree.copy(), stretch=1.0)
        stats = spanner.statistics(measure_stretch=True)
        assert stats.lightness == pytest.approx(1.0)
        assert stats.measured_stretch == pytest.approx(1.0)
        assert stats.max_degree == 2

    def test_repr(self, small_random_graph):
        text = repr(greedy_spanner(small_random_graph, 2.0))
        assert "greedy" in text and "t=2.0" in text
