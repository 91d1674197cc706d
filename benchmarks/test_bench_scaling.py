"""Runtime-scaling benchmarks: greedy vs approximate-greedy vs baselines.

These back the runtime statements of the paper's Sections 1.2 and 5: the
exact greedy spanner's work grows quadratically in n (it must examine all
interpoint distances), while the approximate-greedy algorithm and the
constructive baselines grow near-linearly.  pytest-benchmark records the
timings per n; the printed table records the operation counts, which are the
implementation-independent quantity.
"""

from __future__ import annotations

import pytest

from repro.core.approximate_greedy import approximate_greedy_spanner
from repro.core.greedy import greedy_spanner_of_metric
from repro.experiments.harness import ExperimentResult, timed
from repro.metric.generators import uniform_points
from repro.spanners.theta_graph import cones_for_stretch, theta_graph_spanner


@pytest.mark.parametrize("n", [50, 100, 200])
def test_bench_exact_greedy_scaling(benchmark, n):
    """Exact metric greedy at increasing n (quadratic distance-query growth)."""
    metric = uniform_points(n, 2, seed=800 + n)
    spanner = benchmark(greedy_spanner_of_metric, metric, 1.5)
    assert spanner.metadata["distance_queries"] == n * (n - 1) / 2


@pytest.mark.parametrize("n", [50, 100, 200])
def test_bench_approximate_greedy_scaling(benchmark, n):
    """Approximate-greedy at increasing n (one query per base-spanner edge)."""
    metric = uniform_points(n, 2, seed=800 + n)
    spanner = benchmark(approximate_greedy_spanner, metric, 0.5, base="theta")
    assert spanner.metadata["distance_queries"] == spanner.metadata["base_edges"]
    assert spanner.metadata["distance_queries"] < n * (n - 1) / 2


@pytest.mark.parametrize("n", [50, 100, 200])
def test_bench_theta_graph_scaling(benchmark, n):
    """Θ-graph construction at increasing n (the fast-but-heavy baseline)."""
    metric = uniform_points(n, 2, seed=800 + n)
    spanner = benchmark(theta_graph_spanner, metric, cones_for_stretch(1.5))
    assert spanner.number_of_edges <= cones_for_stretch(1.5) * n


def test_bench_scaling_table(experiment_report_collector, benchmark):
    """Summarise operation counts vs n in one table (printed with the reports)."""
    result = ExperimentResult(
        experiment_id="E5b",
        title="Work scaling: exact greedy vs approximate-greedy",
        paper_claim=(
            "The exact greedy algorithm examines all n(n-1)/2 distances; "
            "Approximate-Greedy examines only the O(n) edges of the bounded-degree "
            "base spanner (Section 5.1), giving near-linear work growth."
        ),
    )
    with timed(result):
        for n in (50, 100, 200, 400):
            metric = uniform_points(n, 2, seed=900 + n)
            exact = greedy_spanner_of_metric(metric, 1.5)
            approx = approximate_greedy_spanner(metric, 0.5, base="theta")
            result.add_row(
                n=n,
                exact_queries=exact.metadata["distance_queries"],
                exact_settles=exact.metadata["dijkstra_settles"],
                approx_queries=approx.metadata["distance_queries"],
                approx_base_edges=approx.metadata["base_edges"],
                exact_queries_per_n=exact.metadata["distance_queries"] / n,
                approx_queries_per_n=approx.metadata["distance_queries"] / n,
            )
    experiment_report_collector(result.render())
    # The per-n exact query count grows linearly (quadratic total); the per-n
    # approximate count stays roughly flat (near-linear total).
    first, last = result.rows[0], result.rows[-1]
    assert last["exact_queries_per_n"] > 4 * first["exact_queries_per_n"]
    assert last["approx_queries_per_n"] < 3 * first["approx_queries_per_n"]
    # Give pytest-benchmark something cheap to time so the fixture is satisfied.
    benchmark(lambda: None)
