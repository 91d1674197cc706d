"""``repro bench overlays`` — the overlay matrix on the indexed distributed engine.

Benchmarks the CI-sized overlay rows (geometric n=300, uniform n=400),
asserts the Section 1.1 trade-off shape per registry builder, and — under
the ``bench_regression`` marker — emits a fresh ``BENCH_overlays.json`` run
and diffs its deterministic ``overlay_*`` operation counts against the
committed baseline in ``benchmarks/BENCH_overlays.json`` via
``scripts/check_bench_regression.py`` (threshold +25%).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.oracle_bench import euclidean_workload
from repro.experiments.bench import merge_run_into_file
from repro.experiments.overlay_bench import (
    DEFAULT_GRAPH_BUILDERS,
    DEFAULT_METRIC_BUILDERS,
    SPEC,
    geometric_workload,
    run_overlay_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_overlays.json"

GEOMETRIC_BENCH = geometric_workload(n=300)
EUCLIDEAN_BENCH = euclidean_workload(n=400, stretch=1.5)


@pytest.fixture(scope="module")
def geometric_run():
    return run_overlay_bench(GEOMETRIC_BENCH, DEFAULT_GRAPH_BUILDERS)


@pytest.fixture(scope="module")
def euclidean_run():
    return run_overlay_bench(EUCLIDEAN_BENCH, DEFAULT_METRIC_BUILDERS)


def test_bench_overlay_matrix_geometric(benchmark, bench_report_collector):
    """Time the graph-workload overlay row and collect its table."""
    run = benchmark.pedantic(
        run_overlay_bench, args=(GEOMETRIC_BENCH, DEFAULT_GRAPH_BUILDERS),
        rounds=1, iterations=1,
    )
    assert set(run["strategies"]) == set(DEFAULT_GRAPH_BUILDERS)
    bench_report_collector(run, SPEC)


def test_bench_overlay_tradeoff_shape_geometric(geometric_run):
    """Greedy overlay: near-MST broadcast cost, near-optimal delay, small tables."""
    rows = geometric_run["strategies"]
    greedy, mst = rows["greedy"], rows["mst"]
    stretch = float(GEOMETRIC_BENCH["stretch"])
    assert mst["broadcast_cost"] <= greedy["broadcast_cost"] + 1e-9
    assert greedy["delay_stretch"] <= stretch + 1e-6
    assert greedy["route_stretch_max"] <= stretch + 1e-6
    assert mst["route_stretch_max"] >= greedy["route_stretch_max"] - 1e-9
    assert greedy["max_ports"] <= rows["baswana-sen"]["max_ports"]


def test_bench_overlay_tradeoff_shape_euclidean(euclidean_run):
    """Metric workload: every builder respects its stretch; MST is lightest."""
    rows = euclidean_run["strategies"]
    for name in ("theta", "yao", "greedy"):
        assert rows[name]["route_stretch_max"] <= 1.5 + 1e-6, name
        assert rows[name]["delay_stretch"] <= 1.5 + 1e-6, name
    weights = {name: record["overlay_weight"] for name, record in rows.items()}
    assert weights["mst"] == min(weights.values())
    assert rows["greedy"]["spanner_edges"] <= rows["theta"]["spanner_edges"]
    assert rows["greedy"]["spanner_edges"] <= rows["yao"]["spanner_edges"]


def test_overlay_presets_include_the_scale_row():
    """The committed matrix must carry an n=10^4 row with >= 4 builders."""
    key = "uniform-euclidean-n10000-d2-seed7-t1.5"
    assert key in SPEC.presets
    assert len(SPEC.presets[key].strategies) >= 4


@pytest.mark.bench_regression
def test_bench_no_overlay_operation_count_regression(
    geometric_run, euclidean_run, tmp_path
):
    """Fresh overlay_* operation counts must stay within +25% of the baseline."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_bench_regression import find_regressions, load_document
    finally:
        sys.path.pop(0)

    fresh_path = tmp_path / "BENCH_overlays.json"
    merge_run_into_file(fresh_path, geometric_run, SPEC)
    merge_run_into_file(fresh_path, euclidean_run, SPEC)

    assert BASELINE_PATH.exists(), (
        "committed overlay baseline missing; regenerate with "
        "`repro bench overlays --workloads all "
        "--output benchmarks/BENCH_overlays.json` (see docs/PERFORMANCE.md)"
    )
    problems = find_regressions(
        load_document(BASELINE_PATH), load_document(fresh_path), SPEC
    )
    assert not problems, "\n".join(problems)
