"""``repro bench faults`` — the fault-injection matrix.

Benchmarks the CI-sized fault row (geometric n=300, 5% drop, heavy-band edge
failures, node crashes), asserts the robustness contract (delivery completes
to every surviving-reachable vertex, the engine replays the fault schedule
tie for tie with the seed engine of ``tests/oracles/distributed.py``, repair
is bit-identical to a full rebuild and re-certified), and — under the
``bench_regression`` marker — emits a fresh ``BENCH_faults.json`` run and
diffs its deterministic protocol/repair counters against the committed
baseline via
``scripts/check_bench_regression.py`` (threshold +25%, plus the
delivery-rate floor and the ≥5× repair-speedup bar on the gated scale row).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from oracles.distributed import resilient_flood_reference

from repro.core.greedy import greedy_spanner
from repro.distributed.resilient import delivery_report, resilient_echo
from repro.experiments.bench import merge_run_into_file
from repro.experiments.fault_bench import (
    SPEC,
    _without_faults,
    fault_workload,
    run_fault_bench,
    sample_fault_plan,
)
from repro.experiments.overlay_bench import _build_instance, geometric_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_faults.json"

GEOMETRIC_BENCH = fault_workload(
    geometric_workload(n=300, radius=0.12, seed=7, stretch=1.5),
    fault_seed=11,
    edge_failure_rate=0.02,
    failure_band=0.3,
    node_crash_rate=0.02,
    drop_rate=0.05,
    delay_jitter=0.25,
    repair_oracle="cached",
)


@pytest.fixture(scope="module")
def geometric_run():
    return run_fault_bench(GEOMETRIC_BENCH)


def test_bench_fault_matrix_geometric(benchmark, bench_report_collector):
    """Time the CI fault row and collect its table."""
    run = benchmark.pedantic(
        run_fault_bench, args=(GEOMETRIC_BENCH,), rounds=1, iterations=1
    )
    assert set(run["strategies"]) == {"indexed", "repair"}
    bench_report_collector(run, SPEC)


def test_bench_fault_contract_flags(geometric_run):
    """Delivery completes and repair ≡ rebuild."""
    flags = SPEC.flag_values(geometric_run)
    assert flags == {
        "delivery_complete": True,
        "post_repair_verified": True,
        "repair_matches_rebuild": True,
    }
    assert geometric_run["delivery_rate"] >= 1.0


def test_bench_fault_engines_share_counters(geometric_run):
    """The seed engine replays the bench's plan to identical fault counters."""
    graph, _ = _build_instance(_without_faults(GEOMETRIC_BENCH))
    overlay = greedy_spanner(graph, float(GEOMETRIC_BENCH["stretch"])).subgraph
    source, plan = sample_fault_plan(overlay, GEOMETRIC_BENCH)
    flood = resilient_flood_reference(overlay, source, plan)
    reference = {f"fault_{key}": value for key, value in flood.as_row().items()}
    echo = resilient_echo(overlay, source, flood, plan)
    reference.update({f"fault_{key}": value for key, value in echo.as_row().items()})
    reference.update(delivery_report(overlay, source, plan, flood))
    indexed = geometric_run["strategies"]["indexed"]
    for key, value in indexed.items():
        if key != "flood_seconds":
            assert reference[key] == value, key


def test_fault_presets_include_the_gated_scale_row():
    """The committed matrix must carry the exact n=10^4 acceptance row."""
    key = "geometric-n10000-r0.025-seed7-t1.2-f11-ef0.02-fb0.02-nc0.0-dr0.05-dj0.25-obounded"
    assert key in SPEC.presets
    preset = SPEC.presets[key]
    workload = preset.workload
    assert workload["repair_oracle"] == "bounded"
    assert int(workload["n"]) == 10_000
    assert float(workload["drop_rate"]) >= 0.05
    assert float(workload["edge_failure_rate"]) >= 0.02
    assert preset.gated is True


@pytest.mark.bench_regression
def test_bench_no_fault_operation_count_regression(geometric_run, tmp_path):
    """Fresh fault/repair counters must stay within +25% of baseline, the
    delivery rate must not drop, and the gated scale row must keep its ≥5×
    repair-vs-rebuild evidence."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_bench_regression import find_regressions, load_document
    finally:
        sys.path.pop(0)

    fresh_path = tmp_path / "BENCH_faults.json"
    merge_run_into_file(fresh_path, geometric_run, SPEC)

    assert BASELINE_PATH.exists(), (
        "committed fault baseline missing; regenerate with "
        "`repro bench faults --workloads all "
        "--output benchmarks/BENCH_faults.json` (see docs/RESILIENCE.md)"
    )
    problems = find_regressions(
        load_document(BASELINE_PATH), load_document(fresh_path), SPEC
    )
    assert not problems, "\n".join(problems)
