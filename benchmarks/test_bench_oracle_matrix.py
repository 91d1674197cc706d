"""``repro bench oracles`` — the distance-oracle matrix on the greedy hot path.

Benchmarks the default (cached) greedy path, cross-checks that both oracle
strategies build the *identical* greedy spanner while the cached one does
strictly less work, that the incremental cluster engine matches the replay
oracle of ``tests/oracles/cluster.py`` at a fraction of its transition
work, and — under the ``bench_regression`` marker — emits a
fresh ``BENCH_oracles.json`` run and diffs its deterministic operation
counts against the committed baseline in ``benchmarks/BENCH_oracles.json``
via ``scripts/check_bench_regression.py`` (threshold +25%).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from oracles.cluster import ReplayClusterGraph

import repro.core.approximate_greedy
from repro.core.greedy import greedy_spanner_of_metric
from repro.experiments.bench import instance_and_metric, merge_run_into_file
from repro.experiments.oracle_bench import SPEC, _run_strategy, run_oracle_matrix
from repro.metric.generators import uniform_points
from repro.workload_kinds import workload

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_oracles.json"

EUCLIDEAN_BENCH = workload("uniform-euclidean", n=150)
GRAPH_BENCH = workload("erdos-renyi", n=120, p=0.15)
APPROX_BENCH_KEY = "uniform-euclidean-n400-d2-seed7-t1.5"


@pytest.fixture(scope="module")
def euclidean_run():
    return run_oracle_matrix(EUCLIDEAN_BENCH)


@pytest.fixture(scope="module")
def graph_run():
    return run_oracle_matrix(GRAPH_BENCH)


@pytest.fixture(scope="module")
def approx_run():
    preset = SPEC.presets[APPROX_BENCH_KEY]
    return run_oracle_matrix(preset.workload, strategies=preset.strategies)


def test_bench_default_greedy_path(benchmark):
    """Time one greedy construction on the default (cached-oracle) hot path."""
    metric = uniform_points(int(EUCLIDEAN_BENCH["n"]), 2, seed=int(EUCLIDEAN_BENCH["seed"]))
    spanner = benchmark.pedantic(
        greedy_spanner_of_metric, args=(metric, EUCLIDEAN_BENCH["stretch"]), rounds=1, iterations=1
    )
    assert spanner.metadata["cache_hits"] > 0


def test_bench_oracle_matrix_euclidean(euclidean_run, bench_report_collector):
    """Both strategies agree on the Euclidean workload; the cached one does less work."""
    assert euclidean_run["identical_edge_sets"]
    strategies = euclidean_run["strategies"]
    assert strategies["cached"]["dijkstra_settles"] < strategies["bounded"]["dijkstra_settles"]
    bench_report_collector(euclidean_run, SPEC)


def test_bench_oracle_matrix_general_graph(graph_run):
    """All strategies agree on the Erdős–Rényi workload too (Section 3 setting)."""
    assert graph_run["identical_edge_sets"]
    strategies = graph_run["strategies"]
    assert strategies["cached"]["dijkstra_settles"] <= strategies["bounded"]["dijkstra_settles"]


def test_bench_approx_engines_agree_and_incremental_wins(approx_run, monkeypatch):
    """The incremental cluster engine builds the same approximate-greedy
    spanner as the replay oracle, and its transitions settle at least 5x
    less (the committed n=2000 row in BENCH_oracles.json, measured when the
    replay was still a bench strategy, shows the same shape)."""
    incremental = approx_run["strategies"]["approx-greedy"]
    row = SPEC.presets[APPROX_BENCH_KEY].workload
    graph, metric = instance_and_metric(row)
    monkeypatch.setattr(repro.core.approximate_greedy, "ClusterGraph", ReplayClusterGraph)
    scratch, _ = _run_strategy("approx-greedy", graph, metric, float(row["stretch"]))
    assert incremental["spanner_edges"] == scratch.number_of_edges
    assert incremental["cluster_query_settles"] == scratch.metadata["cluster_query_settles"]
    if incremental["cluster_transitions"] > 0:
        assert scratch.metadata["cluster_transition_settles"] >= 5.0 * max(
            incremental["cluster_transition_settles"], 1.0
        )


@pytest.mark.bench_regression
def test_bench_no_operation_count_regression(euclidean_run, graph_run, approx_run, tmp_path):
    """Fresh operation counts must stay within +25% of the committed baseline."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_bench_regression import find_regressions, load_document
    finally:
        sys.path.pop(0)

    fresh_path = tmp_path / "BENCH_oracles.json"
    merge_run_into_file(fresh_path, euclidean_run, SPEC)
    merge_run_into_file(fresh_path, graph_run, SPEC)
    merge_run_into_file(fresh_path, approx_run, SPEC)

    assert BASELINE_PATH.exists(), (
        "committed baseline missing; regenerate with "
        "`repro bench oracles --workloads all "
        "--output benchmarks/BENCH_oracles.json` (see docs/PERFORMANCE.md)"
    )
    problems = find_regressions(
        load_document(BASELINE_PATH), load_document(fresh_path), SPEC
    )
    assert not problems, "\n".join(problems)
