"""End-to-end integration tests across the whole library.

Each test runs a realistic pipeline the way a downstream user would: build a
workload, construct spanners with different algorithms, verify them, measure
them, and feed them to the application layer.
"""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro
from repro import (
    EuclideanMetric,
    WeightedGraph,
    analyse_figure1,
    approximate_greedy_spanner,
    existential_optimality_certificate,
    greedy_spanner,
    greedy_spanner_of_metric,
    metric_optimality_certificate,
)
from repro.core.optimality import verify_lemma3_self_spanner, verify_observation2
from repro.distributed.comparison import compare_overlays
from repro.experiments.workloads import get_workload
from repro.graph.generators import random_geometric_graph
from repro.metric.generators import uniform_points
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.trivial import mst_spanner
from repro.spanners.verification import stretch_profile


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        assert callable(repro.greedy_spanner)
        assert set(repro.__all__) >= {
            "greedy_spanner",
            "approximate_greedy_spanner",
            "analyse_figure1",
        }
        packages = [
            "repro",
            "repro.core",
            "repro.distributed",
            "repro.experiments",
            "repro.graph",
            "repro.metric",
            "repro.service",
            "repro.spanners",
        ]
        for name in packages:
            module = importlib.import_module(name)
            exported = module.__all__
            assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
            missing = [item for item in exported if not hasattr(module, item)]
            assert not missing, f"{name}.__all__ names missing attributes: {missing}"

    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            declared = tomllib.load(handle)["project"]["version"]
        assert declared == repro.__version__

    def test_imports_without_networkx(self):
        """networkx is a test-only dependency: the library, service and CLI import without it."""
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro, repro.service.workers, repro.cli\n"
            "assert sys.modules['networkx'] is None\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr

    def test_serial_checks_import_no_multiprocessing(self):
        """A serial edge check or profile runs inline: neither it nor the
        library import pulls in the sharding harness or ``multiprocessing``."""
        code = (
            "import sys\n"
            "from repro.graph.generators import random_connected_graph\n"
            "from repro.core.greedy import greedy_spanner\n"
            "from repro.spanners.verification import stretch_profile, verify_spanner_edges\n"
            "graph = random_connected_graph(30, 0.3, seed=1)\n"
            "spanner = greedy_spanner(graph, 2.0)\n"
            "for workers in (None, 0, 1):\n"
            "    assert verify_spanner_edges(spanner.subgraph, graph, 2.0, workers=workers)\n"
            "    assert stretch_profile(spanner, workers=workers)[0].pairs_checked == 435\n"
            "loaded = {'multiprocessing', 'repro.experiments.harness'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr

    def test_service_instances_import_no_bench_module(self):
        """A job's instance comes from the workload kinds alone: building one
        pulls in no ``repro.experiments`` module."""
        code = (
            "import sys\n"
            "from repro.service.workers import build_workload_instance\n"
            "graph = build_workload_instance({'kind': 'bucketed-geometric', 'n': 200,\n"
            "                                 'degree': 8.0, 'seed': 3, 'stretch': 2.0})\n"
            "assert graph.number_of_vertices == 200\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.experiments'))\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr

    def test_quickstart_snippet(self):
        """The snippet from the package docstring / README must keep working."""
        from repro.graph.generators import random_connected_graph

        graph = random_connected_graph(100, 0.1, seed=0)
        spanner = greedy_spanner(graph, t=3.0)
        assert spanner.number_of_edges < graph.number_of_edges
        assert spanner.lightness() >= 1.0
        assert spanner.is_valid()


class TestGeneralGraphPipeline:
    def test_greedy_vs_baseline_pipeline(self):
        graph = get_workload("random-graph-small").build()
        greedy = greedy_spanner(graph, 3.0)
        baseline = baswana_sen_spanner(graph, 2, seed=0)

        assert greedy.is_valid()
        assert verify_observation2(greedy)
        assert verify_lemma3_self_spanner(greedy)
        assert greedy.number_of_edges <= baseline.number_of_edges
        assert greedy.lightness() <= baseline.lightness() + 1e-9

        certificate = existential_optimality_certificate(graph, 3.0)
        assert certificate.holds()

    def test_stretch_profile_pipeline(self):
        graph = get_workload("grid-graph").build()
        spanner = greedy_spanner(graph, 2.0)
        profile, _ = stretch_profile(spanner)
        assert profile.max_stretch <= 2.0 + 1e-9


class TestDoublingMetricPipeline:
    def test_metric_pipeline_exact_and_approximate(self):
        metric = uniform_points(70, 2, seed=77)
        exact = greedy_spanner_of_metric(metric, 1.5)
        approx = approximate_greedy_spanner(metric, 0.5, base="theta")

        assert exact.is_valid()
        assert approx.is_valid()
        assert exact.number_of_edges <= approx.number_of_edges
        assert exact.weight <= approx.weight + 1e-9
        assert approx.lightness() <= 3 * exact.lightness()

        certificate = metric_optimality_certificate(
            uniform_points(30, 2, seed=78), 1.5
        )
        assert certificate.holds()

    def test_non_euclidean_metric_pipeline(self):
        metric = get_workload("circle").build()
        spanner = greedy_spanner_of_metric(metric, 1.3)
        assert spanner.is_valid()
        assert spanner.number_of_edges <= 5 * metric.size


class TestFigure1Pipeline:
    def test_full_figure1_analysis(self):
        report = analyse_figure1(epsilon=0.1)
        assert report.greedy_edges == 15
        assert not report.greedy_is_universally_optimal
        assert report.greedy_matches_petersen_on_petersen


class TestDistributedPipeline:
    def test_broadcast_over_constructed_overlays(self):
        graph = random_geometric_graph(60, 0.22, seed=55)
        overlays = {
            "full": graph,
            "greedy": greedy_spanner(graph, 1.5).subgraph,
            "mst": mst_spanner(graph).subgraph,
        }
        comparison = compare_overlays(graph, overlays, protocols=("broadcast",))
        results = {r.overlay_name: r for r in comparison.broadcast}
        assert results["greedy"].vertices_reached == graph.number_of_vertices
        assert (
            results["greedy"].statistics.total_communication_cost
            < results["full"].statistics.total_communication_cost
        )


class TestCrossRepresentationConsistency:
    def test_graph_and_metric_greedy_agree_on_complete_graph(self):
        """Running greedy on a metric's complete graph directly or through the
        metric wrapper must give the same spanner."""
        metric = uniform_points(30, 2, seed=91)
        via_metric = greedy_spanner_of_metric(metric, 1.4)
        via_graph = greedy_spanner(metric.complete_graph(), 1.4)
        assert via_metric.subgraph.same_edges(via_graph.subgraph)

    def test_euclidean_metric_round_trip_through_graph(self):
        metric = EuclideanMetric([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        graph = metric.complete_graph()
        assert graph.number_of_edges == 6
        spanner = greedy_spanner(graph, 1.1)
        # The two unit-square diagonals are longer than any detour only by
        # sqrt(2)/2 < 1.1 factor... the detour has weight 2 > 1.1*sqrt(2), so
        # the diagonals stay.
        assert spanner.number_of_edges == 6
