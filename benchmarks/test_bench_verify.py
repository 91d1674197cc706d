"""``repro bench verify`` — the batch verification matrix.

Benchmarks the CI-sized verification rows (geometric n=300 with the greedy
builder, uniform n=150 with theta), asserts the engine-vs-reference contract
against the seed per-pair checks of ``tests/oracles/verification.py``
(identical verdicts, bit-identical profile floats, a real speedup on the
metric row), and — under the
``bench_regression`` marker — emits a fresh ``BENCH_verify.json`` run and
diffs its deterministic ``verify_settles`` / ``profile_settles`` operation
counts against the committed baseline in ``benchmarks/BENCH_verify.json``
via ``scripts/check_bench_regression.py`` (threshold +25%).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest
from oracles.verification import profile_reference, verify_edges_reference

from repro.experiments.bench import instance_and_metric, merge_run_into_file
from repro.experiments.overlay_bench import DEFAULT_BUILDER_PARAMS
from repro.experiments.verify_bench import SPEC, run_verify_bench, verify_workload
from repro.workload_kinds import workload
from repro.spanners.registry import build_spanner

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_verify.json"

GEOMETRIC_BENCH = verify_workload(workload("geometric", n=300), "greedy")
EUCLIDEAN_BENCH = verify_workload(workload("uniform-euclidean", n=150, stretch=1.5), "theta")


def _reference_record(run):
    """The seed per-pair checks on the run's spanner: verdict, profile, work."""
    row = run["workload"]
    graph, metric = instance_and_metric(row)
    stretch = float(row["stretch"])
    builder = row["builder"]
    spanner = build_spanner(
        builder, metric if metric is not None else graph, stretch,
        **DEFAULT_BUILDER_PARAMS.get(builder, {}),
    )
    start = time.perf_counter()
    verification = verify_edges_reference(spanner.subgraph, spanner.base, stretch)
    profile, _ = profile_reference(spanner)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, **verification.counters(), "verify_ok": float(verification.ok),
            **profile.as_row()}


@pytest.fixture(scope="module")
def geometric_run():
    return run_verify_bench(GEOMETRIC_BENCH)


@pytest.fixture(scope="module")
def euclidean_run():
    return run_verify_bench(EUCLIDEAN_BENCH)


def test_bench_verify_matrix_geometric(benchmark, bench_report_collector):
    """Time the graph-workload verification row and collect its table."""
    run = benchmark.pedantic(
        run_verify_bench, args=(GEOMETRIC_BENCH,), rounds=1, iterations=1
    )
    assert set(run["strategies"]) == {"indexed"}
    bench_report_collector(run, SPEC)


def test_bench_verify_cross_checks(geometric_run, euclidean_run):
    """Both CI rows: verdicts agree with the reference, profile floats are
    bit-identical."""
    for run in (geometric_run, euclidean_run):
        record = run["strategies"]["indexed"]
        reference = _reference_record(run)
        assert record["verify_ok"] == reference["verify_ok"] == 1.0
        for field in ("pairs_checked", "max_stretch", "mean_stretch", "fraction_at_stretch_one"):
            assert record[field] == reference[field], field


def test_bench_verify_metric_row_speedup(euclidean_run):
    """The metric row is where the per-pair reference collapses: the batch
    engine must beat it by an order of magnitude even at n=150."""
    indexed = euclidean_run["strategies"]["indexed"]
    reference = _reference_record(euclidean_run)
    engine_seconds = indexed["verify_seconds"] + indexed["profile_seconds"]
    assert reference["seconds"] >= 10.0 * engine_seconds
    assert indexed["verify_settles"] < reference["verify_settles"] / 5


def test_verify_presets_include_the_scale_row():
    """The committed matrix must carry the exact n=10^4 edge-verification row."""
    key = "geometric-n10000-r0.025-seed7-t3.0-bbaswana-sen"
    assert key in SPEC.presets
    preset = SPEC.presets[key]
    assert int(preset.workload["n"]) == 10_000
    assert preset.extra["profile_sources"] is not None


@pytest.mark.bench_regression
def test_bench_no_verify_operation_count_regression(
    geometric_run, euclidean_run, tmp_path
):
    """Fresh verify/profile settle counts must stay within +25% of baseline."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_bench_regression import find_regressions, load_document
    finally:
        sys.path.pop(0)

    fresh_path = tmp_path / "BENCH_verify.json"
    merge_run_into_file(fresh_path, geometric_run, SPEC)
    merge_run_into_file(fresh_path, euclidean_run, SPEC)

    assert BASELINE_PATH.exists(), (
        "committed verification baseline missing; regenerate with "
        "`repro bench verify --workloads all "
        "--output benchmarks/BENCH_verify.json` (see docs/PERFORMANCE.md)"
    )
    problems = find_regressions(
        load_document(BASELINE_PATH), load_document(fresh_path), SPEC
    )
    assert not problems, "\n".join(problems)
