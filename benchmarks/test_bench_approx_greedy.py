"""E5 — Theorem 6: Algorithm Approximate-Greedy in doubling metrics.

Times the approximate-greedy construction and reports the quality
(lightness/degree within constants of exact greedy) and work (distance-query
counts: quadratic for exact, one per base-spanner edge for approximate)
table across n.
"""

from __future__ import annotations

from repro.core.approximate_greedy import approximate_greedy_spanner
from repro.experiments.experiments import experiment_approximate_greedy
from repro.metric.generators import uniform_points


def test_bench_approximate_greedy(benchmark, experiment_report_collector):
    """Time Approximate-Greedy (theta base) on 200 uniform planar points."""
    metric = uniform_points(200, 2, seed=501)

    spanner = benchmark(approximate_greedy_spanner, metric, 0.5, base="theta")
    assert spanner.is_valid()

    result = experiment_approximate_greedy(sizes=(50, 100, 200, 320))
    experiment_report_collector(result.render())
    for row in result.rows:
        assert row["approx_valid"]
        assert row["lightness_ratio"] <= 3.0
