"""``repro bench service`` — the service chaos matrix.

Benchmarks the CI-sized service row (geometric n=300), asserts the recovery
contract (the cold build's spanner is re-verified, a bit-flipped artifact is quarantined and rebuilt byte-identical rather
than served, the warm resubmit hits the verified cache, the abandoned
claim's expired lease is reclaimed), and — under the ``bench_regression``
marker — emits a fresh ``BENCH_service.json`` run and diffs its
deterministic recovery counters against the committed baseline via
``scripts/check_bench_regression.py`` (threshold +25%, plus the ≤1%
warm-serve-ratio bar on the gated scale row).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.bench import merge_run_into_file
from repro.experiments.service_bench import SPEC, run_service_bench
from repro.workload_kinds import workload

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_service.json"

GEOMETRIC_BENCH = workload("geometric", n=300, radius=0.12, seed=7, stretch=1.5)


@pytest.fixture(scope="module")
def geometric_run():
    return run_service_bench(GEOMETRIC_BENCH)


def test_bench_service_matrix_geometric(benchmark, bench_report_collector):
    """Time the CI service row and collect its table."""
    run = benchmark.pedantic(
        run_service_bench, args=(GEOMETRIC_BENCH,), rounds=1, iterations=1
    )
    assert set(run["strategies"]) == {"service"}
    bench_report_collector(run, SPEC)


def test_bench_service_contract_flags(geometric_run):
    """Every induced failure must be recovered, never papered over."""
    flags = SPEC.flag_values(geometric_run)
    assert flags == {
        "never_served_corrupt": True,
        "rebuild_matches": True,
        "reclaim_completed": True,
        "service_verified": True,
        "warm_cache_hit": True,
    }
    assert geometric_run["tier"] == "greedy-parallel"
    assert not geometric_run["degraded"]


def test_bench_service_recovery_counters(geometric_run):
    """The ledger records exactly the failures the bench induced."""
    record = geometric_run["strategies"]["service"]
    assert record["service_jobs_done"] == 4.0
    assert record["service_jobs_failed"] == 0.0
    assert record["service_corrupt_quarantined"] == 1.0
    assert record["service_corrupt_rebuilds"] == 1.0
    assert record["service_lease_reclaims"] == 1.0
    assert record["service_poison_quarantined"] == 0.0


def test_service_presets_include_the_gated_scale_row():
    """The committed matrix must carry the gated n=10^4 serving-latency row."""
    key = "geometric-n10000-r0.025-seed7-t1.2"
    assert key in SPEC.presets
    preset = SPEC.presets[key]
    assert int(preset.workload["n"]) == 10_000
    assert preset.gated is True


@pytest.mark.bench_regression
def test_bench_no_service_operation_count_regression(geometric_run, tmp_path):
    """Fresh recovery counters must stay within +25% of baseline, every
    recovery flag must hold, and the gated scale row must keep its ≤1%
    warm-serve-ratio evidence."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_bench_regression import find_regressions, load_document
    finally:
        sys.path.pop(0)

    fresh_path = tmp_path / "BENCH_service.json"
    merge_run_into_file(fresh_path, geometric_run, SPEC)

    assert BASELINE_PATH.exists(), (
        "committed service baseline missing; regenerate with "
        "`repro bench service --workloads all "
        "--output benchmarks/BENCH_service.json` (see docs/SERVICE.md)"
    )
    problems = find_regressions(
        load_document(BASELINE_PATH), load_document(fresh_path), SPEC
    )
    assert not problems, "\n".join(problems)
