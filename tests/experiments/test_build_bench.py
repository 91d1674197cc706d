"""Unit tests for the construction benchmark matrix (``repro bench build``)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.bench import Preset, merge_run_into_file, render_rows
from repro.experiments.build_bench import (
    DEFAULT_STRATEGIES,
    SPEC,
    bucketed_workload,
    euclidean_build_workload,
    run_build_bench,
    workload_key,
)

OPERATION_COUNT_KEYS = SPEC.counters


@pytest.fixture(scope="module")
def small_run():
    return run_build_bench(bucketed_workload(n=80, degree=8.0))


@pytest.fixture(scope="module")
def metric_run():
    return run_build_bench(euclidean_build_workload(n=40, stretch=1.5))


class TestBuildBench:
    def test_record_shape(self, small_run):
        assert set(small_run["strategies"]) == set(DEFAULT_STRATEGIES)
        record = small_run["strategies"]["csr-parallel-w1"]
        for counter in OPERATION_COUNT_KEYS:
            assert counter in record, counter
        assert record["build_seconds"] > 0
        assert small_run["cpu_count"] >= 1

    def test_all_strategies_build_the_same_spanner(self, small_run, metric_run):
        assert small_run["builds_match"] is True
        assert metric_run["builds_match"] is True
        edge_counts = {
            record["spanner_edges"] for record in small_run["strategies"].values()
        }
        assert len(edge_counts) == 1

    def test_derived_ratios_present(self, small_run):
        for ratio in ("build_speedup", "cached_speedup"):
            assert ratio in small_run, ratio
            assert small_run[ratio] > 0
        # Not a gated row: the marker must be absent, not merely false.
        assert "gate_build_speedup" not in small_run

    def test_workload_key_formats(self):
        assert (
            workload_key(bucketed_workload(n=80, degree=8.0))
            == "bucketed-n80-d8.0-seed3-t2.0"
        )
        assert workload_key(euclidean_build_workload(n=40)).startswith(
            "uniform-euclidean-n40"
        )

    def test_presets_include_the_gated_scale_row(self):
        gated = {
            key: preset.workload for key, preset in SPEC.presets.items() if preset.gated
        }
        assert gated, "the n=10^5 scale row must stay gated"
        assert all(int(w["n"]) >= 100_000 for w in gated.values())
        ci_sized = [
            key for key, preset in SPEC.presets.items()
            if not preset.gated and int(preset.workload["n"]) <= 500
        ]
        assert ci_sized, "at least one CI-sized ungated row must remain"

    def test_merge_run_into_file(self, small_run, tmp_path):
        path = tmp_path / "BENCH_build.json"
        document = merge_run_into_file(path, small_run, SPEC)
        key = workload_key(small_run["workload"])
        assert key in document["runs"]
        again = json.loads(path.read_text())
        assert again["runs"][key]["builds_match"] is True
        rows = render_rows(small_run, SPEC)
        assert {row["strategy"] for row in rows} == set(DEFAULT_STRATEGIES)

    def test_gated_flag_round_trips(self):
        workload = bucketed_workload(n=60, degree=6.0)
        strategies = ("greedy-serial", "csr-parallel-w1")
        gated = replace(
            SPEC, presets={workload_key(workload): Preset(workload, strategies, gated=True)}
        )
        run = gated.run_key(workload_key(workload))
        assert run["gate_build_speedup"] is True
        assert "build_speedup" not in run  # no edge-list strategy requested

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown build strategy"):
            run_build_bench(
                bucketed_workload(n=40, degree=6.0), strategies=("warp-drive",)
            )

    def test_regression_gate_integration(self, small_run):
        import sys

        sys.path.insert(0, "scripts")
        try:
            from check_bench_regression import find_regressions
        finally:
            sys.path.pop(0)
        key = workload_key(small_run["workload"])
        baseline_doc = {"runs": {key: small_run}}
        fresh_run = json.loads(json.dumps(small_run))
        fresh_doc = {"runs": {key: fresh_run}}
        assert find_regressions(baseline_doc, fresh_doc, SPEC) == []
        fresh_run["builds_match"] = False
        assert any(
            "builds_match" in problem
            for problem in find_regressions(baseline_doc, fresh_doc, SPEC)
        )
        fresh_run["builds_match"] = True
        fresh_run["gate_build_speedup"] = True
        fresh_run["build_speedup"] = 1.0
        assert any(
            "build_speedup 1.0 is below the minimum 3" in problem
            for problem in find_regressions(baseline_doc, fresh_doc, SPEC)
        )
        fresh_run["build_speedup"] = 99.0
        fresh_run["strategies"]["csr-parallel-w1"]["build_filter_settles"] *= 2.0
        fresh_run["strategies"]["csr-parallel-w1"]["build_filter_settles"] += 10.0
        assert any(
            "build_filter_settles" in problem
            for problem in find_regressions(baseline_doc, fresh_doc, SPEC)
        )
