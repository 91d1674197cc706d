"""Ablation benchmark for the distance oracle of the greedy implementations.

The textbook cutoff-pruned Dijkstra vs the cached oracle (one ball search
harvested as certified upper bounds for every later pair).  Same output by
construction; the cached oracle settles far fewer vertices.
"""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_spanner
from repro.experiments.harness import ExperimentResult, timed
from repro.graph.generators import random_connected_graph


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
