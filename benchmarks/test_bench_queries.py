"""``repro bench queries`` — the query-throughput matrix.

Benchmarks the CI-sized query row (bucketed-geometric n=2000, 512 queries
over an 8-source pool), asserts the exact-distance contract between the
per-query heapq reference and the source-grouped batched engine, and —
under the ``bench_regression`` marker — emits a fresh ``BENCH_queries.json``
run and diffs its deterministic ``query_settles`` / ``engine_sources``
counters against the committed baseline in ``benchmarks/BENCH_queries.json``
via ``scripts/check_bench_regression.py`` (threshold +25%; every row marked
``gate_query_speedup`` — including the committed ``n = 10⁵`` scale row —
must clear the 3× throughput bar, re-validated from the committed document
on every run).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.bench import merge_run_into_file
from repro.experiments.query_bench import (
    SPEC,
    draw_queries,
    query_workload,
    run_query_bench,
    workload_key,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_queries.json"

CI_BENCH = query_workload(n=2000, degree=8.0, queries=512, sources=8)


@pytest.fixture(scope="module")
def ci_run():
    return SPEC.run_key(workload_key(CI_BENCH))


def test_bench_queries_ci_row(benchmark):
    """Time the CI-sized query row; both strategies must agree exactly."""
    run = benchmark.pedantic(
        run_query_bench, args=(CI_BENCH,), rounds=1, iterations=1
    )
    assert run["queries_match"] is True


def test_bench_queries_exact_distances(ci_run):
    """The batched engine reproduces the per-query reference bit for bit."""
    assert ci_run["queries_match"] is True


def test_bench_queries_engine_amortizes_settles(ci_run):
    """Batching by source must settle far fewer vertices than per-query."""
    reference = ci_run["strategies"]["per-query-heapq"]["query_settles"]
    engine = ci_run["strategies"]["batched-engine"]["query_settles"]
    assert engine < reference / 3


def test_bench_queries_speedup_bar(ci_run):
    """The gated CI row must clear the 3x throughput acceptance bar."""
    assert ci_run["query_speedup"] >= 3.0


def test_query_batch_is_deterministic():
    """The drawn query batch is a pure function of the workload descriptor."""
    again = query_workload(n=2000, degree=8.0, queries=512, sources=8)
    assert draw_queries(CI_BENCH) == draw_queries(again)
    sources, targets = draw_queries(CI_BENCH)
    assert len(sources) == len(targets) == 512
    assert len(set(sources)) == 8


def test_query_presets_include_the_gated_scale_row():
    """The committed matrix must carry the gated n=10^5 query row."""
    key = "queries-bucketed-n100000-d6.0-seed3-q2048-s64-qs11"
    assert key in SPEC.presets
    preset = SPEC.presets[key]
    assert preset.gated is True
    assert int(preset.workload["n"]) == 100_000
    assert workload_key(preset.workload) == key


@pytest.mark.bench_regression
def test_bench_no_query_operation_count_regression(ci_run, tmp_path):
    """Fresh query settle counts must stay within +25% of baseline, and the
    gated speedup rows (fresh CI row and committed scale rows) must clear
    the 3x bar."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_bench_regression import find_regressions, load_document
    finally:
        sys.path.pop(0)

    fresh_path = tmp_path / "BENCH_queries.json"
    merge_run_into_file(fresh_path, ci_run, SPEC)

    assert BASELINE_PATH.exists(), (
        "committed query baseline missing; regenerate with "
        "`repro bench queries --workloads all "
        "--output benchmarks/BENCH_queries.json` (see docs/PERFORMANCE.md)"
    )
    problems = find_regressions(
        load_document(BASELINE_PATH), load_document(fresh_path), SPEC
    )
    assert not problems, "\n".join(problems)
