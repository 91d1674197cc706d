"""Self-tests of the benchmark at toy size.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.tracing import self_times
from perfbench.workloads import TOY, WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
bench.use_library()


@pytest.fixture(scope="module")
def results() -> dict:
    """Each workload once untraced and once traced, at toy size."""
    return {
        (name, trace): bench.run(name, 3, 0.3, trace, TOY)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_every_workload_runs_at_toy_size_without_failures(results):
    for key, result in results.items():
        assert result["attempted"] >= 1, key
        assert result["failed"] == 0, (key, result["errors"])


def test_printed_names_and_units_match_benchmark_json(results):
    declared = {
        False: {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]},
        True: {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]},
    }
    assert sorted(workload["name"] for workload in SPEC["workloads"]) == sorted(WORKLOADS)
    for (name, trace), result in results.items():
        line = json.loads(bench.final_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        printed = {metric: entry["unit"] for metric, entry in line["metrics"].items()}
        assert printed == declared[trace], name
        report = "\n".join(bench.report(result, trace))
        for metric, unit in declared[trace].items():
            assert metric in report and unit in report


def test_end_to_end_metrics_are_never_zero(results):
    for (name, trace), result in results.items():
        if not trace:
            assert all(value > 0 for value in result["metrics"].values()), name


def test_a_wrong_distance_raises_the_failed_ratio(monkeypatch):
    from repro.core.query_engine import QueryEngine

    plain = QueryEngine.run_queries_ids

    def perturbed(self, sources, targets):
        answers = plain(self, sources, targets)
        answers[0] += 1.0
        return answers

    monkeypatch.setattr(QueryEngine, "run_queries_ids", perturbed)
    result = bench.run("query-batches", 3, 0.3, False, TOY)
    assert result["failed"] > 0
    assert json.loads(bench.final_line(result, False))["correct"] is False


def test_traced_self_times_are_non_negative_and_fit_in_their_op(results):
    for name in WORKLOADS:
        spans = results[(name, True)]["tracer"].spans
        own = self_times(spans)
        assert min(own) >= -1e-9, name
        roots = [span for span in spans if span.parent == -1]
        assert roots and all(span.name.startswith("op.") for span in roots)
        for root in roots:
            inside = sum(s for span, s in zip(spans, own) if span.op == root.op)
            assert inside <= root.duration + 1e-9, (name, root.name)


def test_graph_jobs_moves_to_a_fresh_queue_each_epoch_and_keeps_its_cache(tmp_path):
    from perfbench.workloads import QUEUE_EPOCH_CYCLES, GraphJobs

    workload = GraphJobs(3, TOY, tmp_path)
    workload.setup()
    try:
        for _ in range(QUEUE_EPOCH_CYCLES + 1):
            workload.cycle(record=True)
        assert workload.queue.root.name == "queue-1"
        assert len(workload.queue.list_jobs()) == 5
        assert workload.cache.counters["hits"] == 4 * (QUEUE_EPOCH_CYCLES + 1)
        workload.check()
        assert workload.m.failed == 0, workload.m.errors
    finally:
        workload.close()


def test_trace_overhead_is_reported_for_every_workload(results):
    for name in WORKLOADS:
        assert "trace.overhead" in results[(name, True)]["metrics"]


@pytest.mark.parametrize(
    "count, percentile, beyond", [(11, 50, 5), (22, 54, 10), (40, 75, 10), (100, 90, 10)]
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, percentile, beyond):
    samples = [float(value) for value in range(count)]
    value, got_percentile, got_beyond = bench.tail(samples)
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert value == samples[count - beyond - 1]


def test_exits_non_zero_without_the_library(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "query-batches", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
