"""Unit tests for the fault benchmark module (tiny workloads only)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench import merge_run_into_file, render_rows
from repro.experiments.fault_bench import (
    SPEC,
    fault_workload,
    run_fault_bench,
    workload_key,
)
from repro.experiments.oracle_bench import euclidean_workload
from repro.experiments.overlay_bench import geometric_workload

TINY = fault_workload(
    geometric_workload(n=80, radius=0.25, seed=7, stretch=1.5),
    fault_seed=11,
    edge_failure_rate=0.05,
    failure_band=0.3,
    node_crash_rate=0.02,
    drop_rate=0.05,
    delay_jitter=0.25,
)


@pytest.fixture(scope="module")
def tiny_run():
    return run_fault_bench(TINY)


def test_workload_key_is_stable_and_prefixed():
    key = workload_key(TINY)
    assert key.startswith("geometric-n80-r0.25-seed7-t1.5-")
    assert "f11" in key and "dr0.05" in key and "ocached" in key


def test_presets_keyed_by_their_own_workload_key():
    for key, preset in SPEC.presets.items():
        assert workload_key(preset.workload) == key
        assert preset.strategies == ()  # fixed phases: flood, repair, detours


def test_run_record_shape(tiny_run):
    assert set(tiny_run["strategies"]) == {"indexed", "repair"}
    repair = tiny_run["strategies"]["repair"]
    for key in ("repair_settles", "rebuild_settles", "detours", "undelivered"):
        assert key in repair
    record = tiny_run["strategies"]["indexed"]
    assert record["fault_messages"] > 0
    assert "delivery_rate" in record
    # Every gated counter name appears somewhere in the strategies.
    recorded = set()
    for record in tiny_run["strategies"].values():
        recorded.update(record)
    assert set(SPEC.counters) <= recorded


def test_run_flags_all_pass_on_tiny_row(tiny_run):
    flags = SPEC.flag_values(tiny_run)
    assert set(flags) == set(SPEC.flags)
    assert all(flags.values())
    assert tiny_run["delivery_rate"] >= 1.0


def test_render_rows_one_per_strategy(tiny_run):
    rows = render_rows(tiny_run, SPEC)
    assert [row["mode"] for row in rows] == ["indexed", "repair"]


def test_merge_run_into_file_latest_wins(tiny_run, tmp_path):
    path = tmp_path / "BENCH_faults.json"
    document = merge_run_into_file(path, tiny_run, SPEC)
    assert document["schema"] == 1
    again = merge_run_into_file(path, tiny_run, SPEC)
    assert list(again["runs"]) == [workload_key(TINY)]
    on_disk = json.loads(path.read_text())
    assert on_disk["runs"][workload_key(TINY)]["n"] == 80


def test_metric_workload_rejected():
    workload = fault_workload(euclidean_workload(n=30))
    with pytest.raises(ValueError):
        run_fault_bench(workload)


def test_same_workload_reproduces_identical_record(tiny_run):
    again = run_fault_bench(TINY)
    # Drop wall-clock keys; every remaining number must be bit-identical.
    def strip(run):
        clean = {}
        for name, record in run["strategies"].items():
            clean[name] = {
                key: value
                for key, value in record.items()
                if not key.endswith("_seconds")
            }
        return clean

    assert strip(again) == strip(tiny_run)
    assert again["delivery_rate"] == tiny_run["delivery_rate"]
