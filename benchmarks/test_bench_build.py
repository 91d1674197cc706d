"""``repro bench build`` — the construction matrix.

Benchmarks the CI-sized construction rows (bucketed-geometric n=300 and the
streamed-metric n=150 row), asserts the byte-identical-build contract across
all three strategies (per-edge list path, cached serial, CSR band
filter), and — under the ``bench_regression`` marker — emits a
fresh ``BENCH_build.json`` run and diffs its deterministic ``build_*``
filter/replay counters against the committed baseline in
``benchmarks/BENCH_build.json`` via ``scripts/check_bench_regression.py``
(threshold +25%; the gated ``n = 10⁵`` scale row's ``build_speedup`` bar is
re-validated from the committed document on every run).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.bench import merge_run_into_file
from repro.experiments.build_bench import (
    SPEC,
    bucketed_workload,
    euclidean_build_workload,
    run_build_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_build.json"

BUCKETED_BENCH = bucketed_workload(n=300, degree=16.0)
EUCLIDEAN_BENCH = euclidean_build_workload(n=150, stretch=1.5)


@pytest.fixture(scope="module")
def bucketed_run():
    return run_build_bench(BUCKETED_BENCH)


@pytest.fixture(scope="module")
def euclidean_run():
    return run_build_bench(EUCLIDEAN_BENCH)


def test_bench_build_matrix_bucketed(benchmark, bench_report_collector):
    """Time the bucketed-geometric construction row and collect its table."""
    run = benchmark.pedantic(
        run_build_bench, args=(BUCKETED_BENCH,), rounds=1, iterations=1,
    )
    assert run["builds_match"] is True
    bench_report_collector(run, SPEC)


def test_bench_build_cross_checks(bucketed_run, euclidean_run):
    """Both rows: every strategy produced the byte-identical greedy spanner."""
    for run in (bucketed_run, euclidean_run):
        assert run["builds_match"] is True
        edge_counts = {
            record["spanner_edges"] for record in run["strategies"].values()
        }
        assert len(edge_counts) == 1


def test_bench_build_metric_row_speedup(euclidean_run):
    """On the streamed complete graph the per-edge baseline pays one bounded
    ball per pair; the banded CSR path must beat it clearly even at n=150."""
    assert euclidean_run["build_speedup"] >= 3.0


def test_build_presets_include_the_gated_scale_row():
    """The committed matrix must carry the gated n=10^5 construction row."""
    key = "bucketed-n100000-d96.0-seed3-t2.0"
    assert key in SPEC.presets
    preset = SPEC.presets[key]
    assert preset.gated is True
    assert int(preset.workload["n"]) == 100_000
    assert "greedy-edge-list" in preset.strategies
    assert "csr-parallel-w1" in preset.strategies


@pytest.mark.bench_regression
def test_bench_no_build_operation_count_regression(
    bucketed_run, euclidean_run, tmp_path
):
    """Fresh build filter/replay counts must stay within +25% of baseline."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_bench_regression import find_regressions, load_document
    finally:
        sys.path.pop(0)

    fresh_path = tmp_path / "BENCH_build.json"
    merge_run_into_file(fresh_path, bucketed_run, SPEC)
    merge_run_into_file(fresh_path, euclidean_run, SPEC)

    assert BASELINE_PATH.exists(), (
        "committed construction baseline missing; regenerate with "
        "`repro bench build --workloads all "
        "--output benchmarks/BENCH_build.json` (see docs/PERFORMANCE.md)"
    )
    problems = find_regressions(
        load_document(BASELINE_PATH), load_document(fresh_path), SPEC
    )
    assert not problems, "\n".join(problems)
