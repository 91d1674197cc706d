"""Unit tests for the spanner-builder registry."""

from __future__ import annotations

import math

import pytest

from repro.errors import InvalidStretchError, UnsupportedWorkloadError
from repro.metric.closure import MetricClosure
from repro.metric.generators import uniform_points
from repro.spanners.registry import (
    as_metric,
    baswana_sen_k,
    build_spanner,
    builder_names,
    get_builder,
    list_builders,
    stretch_epsilon,
)
from repro.spanners.verification import verify_spanner_edges

EXPECTED_NAMES = {
    "greedy",
    "greedy-parallel",
    "approx-greedy",
    "theta",
    "yao",
    "wspd",
    "baswana-sen",
    "bounded-degree",
    "mst",
    "complete",
}


class TestRegistryContents:
    def test_all_constructions_registered(self):
        assert set(builder_names()) == EXPECTED_NAMES

    def test_get_builder_unknown_name_lists_valid_names(self):
        with pytest.raises(KeyError, match="greedy"):
            get_builder("warp-drive")

    def test_list_builders_filters_by_workload(self, small_random_graph, small_points):
        graph_names = {b.name for b in list_builders(small_random_graph)}
        metric_names = {b.name for b in list_builders(small_points)}
        assert "baswana-sen" in graph_names and "baswana-sen" not in metric_names
        assert "theta" in metric_names and "theta" not in graph_names
        assert {"greedy", "mst", "complete"} <= graph_names & metric_names


class TestParameterDerivation:
    def test_stretch_epsilon_clamps_below_one(self):
        assert stretch_epsilon(1.5) == pytest.approx(0.5)
        assert stretch_epsilon(3.0) == pytest.approx(0.99)

    def test_baswana_sen_k_from_stretch(self):
        assert baswana_sen_k(1.0) == 1
        assert baswana_sen_k(3.0) == 2
        assert baswana_sen_k(4.5) == 2
        assert baswana_sen_k(5.0) == 3


class TestBuildSpanner:
    def test_every_metric_builder_spans_the_metric(self, small_points):
        for builder in list_builders(small_points):
            spanner = builder.build(small_points, 1.8, **(
                {"seed": 1} if builder.name == "baswana-sen" else {}
            ))
            assert spanner.subgraph.number_of_vertices == len(small_points.points())

    def test_every_graph_builder_spans_the_graph(self, small_random_graph):
        for builder in list_builders(small_random_graph):
            params = {"seed": 1} if builder.name == "baswana-sen" else {}
            spanner = builder.build(small_random_graph, 2.0, **params)
            assert (
                spanner.subgraph.number_of_vertices
                == small_random_graph.number_of_vertices
            )

    def test_greedy_matches_direct_call(self, small_random_graph):
        from repro.core.greedy import greedy_spanner

        via_registry = build_spanner("greedy", small_random_graph, 2.0)
        direct = greedy_spanner(small_random_graph, 2.0)
        assert via_registry.subgraph.same_edges(direct.subgraph)

    def test_metric_closure_unwraps_to_its_metric(self, small_points):
        closure = MetricClosure(small_points)
        assert as_metric(closure) is small_points
        spanner = build_spanner("theta", closure, 1.5)
        assert spanner.algorithm == "theta-graph"

    def test_unsupported_workload_raises_with_builder_name(self, small_random_graph):
        with pytest.raises(UnsupportedWorkloadError, match="theta"):
            build_spanner("theta", small_random_graph, 1.5)

    def test_unsupported_workload_raises_for_metric(self, small_points):
        with pytest.raises(UnsupportedWorkloadError, match="baswana-sen"):
            build_spanner("baswana-sen", small_points, 3.0)

    def test_explicit_params_override_derivation(self, small_points):
        coarse = build_spanner("theta", small_points, 1.5)
        explicit = build_spanner("theta", small_points, 1.5, cones=9)
        assert explicit.metadata["cones"] == 9.0
        assert coarse.metadata["cones"] != explicit.metadata["cones"]

    def test_mst_builder_is_light_on_both_kinds(self, small_random_graph, small_points):
        for workload in (small_random_graph, small_points):
            spanner = build_spanner("mst", workload, 2.0)
            assert spanner.lightness() == pytest.approx(1.0)
            assert spanner.number_of_edges == len(spanner.subgraph) - 1


class TestEpsilonAgainstStretch:
    """An explicit ``epsilon`` looser than the requested stretch is refused:
    the ``(1+ε)``-spanner it would build can fail stretch ``t``."""

    @pytest.mark.parametrize("name", ["approx-greedy", "bounded-degree"])
    def test_epsilon_looser_than_stretch_rejected(self, name):
        metric = uniform_points(60, 2, seed=3)
        with pytest.raises(InvalidStretchError, match="epsilon"):
            build_spanner(name, metric, 1.1, epsilon=0.9)

    @pytest.mark.parametrize("name", ["approx-greedy", "bounded-degree"])
    @pytest.mark.parametrize(
        "stretch, epsilon", [(1.5, 0.5000001), (1.25, 0.3), (1.5, math.nan)]
    )
    def test_any_looser_epsilon_rejected(self, name, stretch, epsilon):
        metric = uniform_points(30, 2, seed=3)
        with pytest.raises(InvalidStretchError, match="epsilon"):
            build_spanner(name, metric, stretch, epsilon=epsilon)

    @pytest.mark.parametrize("name", ["approx-greedy", "bounded-degree"])
    @pytest.mark.parametrize("stretch", [1.3, 1.5])
    def test_epsilon_at_the_stretch_is_accepted(self, name, stretch):
        """``epsilon = stretch - 1.0``, the subtraction E6 passes, is allowed
        and the result meets the requested stretch."""
        metric = uniform_points(30, 2, seed=3)
        spanner = build_spanner(name, metric, stretch, epsilon=stretch - 1.0)
        assert spanner.stretch <= stretch
        assert verify_spanner_edges(spanner.subgraph, spanner.base, stretch)

    @pytest.mark.parametrize("name", ["approx-greedy", "bounded-degree"])
    @pytest.mark.parametrize("stretch", [1.2, 3.0])
    def test_default_epsilon_meets_the_stretch(self, name, stretch):
        """Without ``epsilon`` the adapters use :func:`stretch_epsilon`."""
        metric = uniform_points(30, 2, seed=3)
        spanner = build_spanner(name, metric, stretch)
        assert spanner.stretch == pytest.approx(1.0 + stretch_epsilon(stretch))
        assert verify_spanner_edges(spanner.subgraph, spanner.base, stretch)

    @pytest.mark.parametrize("option", ["bucket_ratio", "cluster_radius_factor"])
    def test_cluster_graph_options_are_not_accepted(self, option):
        metric = uniform_points(30, 2, seed=3)
        with pytest.raises(TypeError):
            build_spanner("approx-greedy", metric, 1.5, **{option: 2.0})
