"""Ablation benchmarks for two design choices of the greedy implementations.

Two ablations:

* **Distance-oracle ablation** (greedy algorithm): the textbook
  cutoff-pruned Dijkstra vs the cached oracle (one ball search harvested as
  certified upper bounds for every later pair).  Same output by
  construction; the cached oracle settles far fewer vertices.
* **Approximate-greedy parameter ablation**: bucket ratio μ and cluster
  radius factor trade extra kept edges (quality) against cluster-graph size
  and rebuild frequency (work).  The output must remain a valid spanner for
  every setting — only the constants move.
"""

from __future__ import annotations

import pytest

from repro.core.approximate_greedy import approximate_greedy_spanner
from repro.core.greedy import greedy_spanner
from repro.experiments.harness import ExperimentResult, timed
from repro.graph.generators import random_connected_graph
from repro.metric.generators import uniform_points


@pytest.mark.parametrize("oracle", ["bounded", "cached"])
def test_bench_oracle_ablation(benchmark, oracle):
    """Time the greedy construction under each distance-oracle strategy."""
    graph = random_connected_graph(100, 0.15, seed=901)
    spanner = benchmark(greedy_spanner, graph, 2.0, oracle=oracle)
    assert spanner.is_valid()


def test_bench_oracle_ablation_table(benchmark, experiment_report_collector):
    """Report the settle counts of the two oracle strategies side by side."""
    result = ExperimentResult(
        experiment_id="A1",
        title="Ablation: bounded vs cached Dijkstra inside the greedy algorithm",
        paper_claim=(
            "The greedy algorithm only needs to know whether the current spanner "
            "distance exceeds t*w(e); distances only shrink as edges are added, so "
            "a pruned ball's settled distances stay certified upper bounds and "
            "answer later queries without changing the output."
        ),
    )
    with timed(result):
        for n in (60, 120):
            graph = random_connected_graph(n, 0.15, seed=902 + n)
            bounded = greedy_spanner(graph, 2.0, oracle="bounded")
            cached = greedy_spanner(graph, 2.0, oracle="cached")
            assert bounded.subgraph.same_edges(cached.subgraph)
            result.add_row(
                n=n,
                edges=bounded.number_of_edges,
                bounded_settles=bounded.metadata["dijkstra_settles"],
                cached_settles=cached.metadata["dijkstra_settles"],
                settle_ratio=bounded.metadata["dijkstra_settles"]
                / max(cached.metadata["dijkstra_settles"], 1.0),
            )
    experiment_report_collector(result.render())
    assert all(row["settle_ratio"] >= 1.0 for row in result.rows)
    benchmark(lambda: None)


@pytest.mark.parametrize("bucket_ratio", [2.0, 4.0, 16.0])
def test_bench_approx_greedy_bucket_ablation(benchmark, bucket_ratio):
    """Time approximate-greedy under different bucket ratios (μ)."""
    metric = uniform_points(150, 2, seed=903)
    spanner = benchmark(
        approximate_greedy_spanner, metric, 0.5, base="theta", bucket_ratio=bucket_ratio
    )
    assert spanner.is_valid()


def test_bench_approx_greedy_ablation_table(benchmark, experiment_report_collector):
    """Report quality/work as the bucket ratio and cluster radius factor vary."""
    metric = uniform_points(150, 2, seed=904)
    result = ExperimentResult(
        experiment_id="A2",
        title="Ablation: Approximate-Greedy bucket ratio and cluster radius",
        paper_claim=(
            "Section 5.1: the bucket ratio mu and the cluster radius control how "
            "coarse the cluster graph is; coarser settings do less work per query "
            "but keep more edges. The stretch guarantee must hold for every setting."
        ),
    )
    with timed(result):
        for bucket_ratio in (2.0, 4.0, 16.0):
            for radius_factor in (0.01, 0.03, 0.1):
                spanner = approximate_greedy_spanner(
                    metric,
                    0.5,
                    base="theta",
                    bucket_ratio=bucket_ratio,
                    cluster_radius_factor=radius_factor,
                )
                result.add_row(
                    bucket_ratio=bucket_ratio,
                    radius_factor=radius_factor,
                    edges=spanner.number_of_edges,
                    lightness=spanner.lightness(),
                    buckets=spanner.metadata["buckets"],
                    queries=spanner.metadata["approximate_queries"],
                    valid=spanner.is_valid(),
                )
    experiment_report_collector(result.render())
    assert all(row["valid"] for row in result.rows)
    benchmark(lambda: None)
