"""Unit tests for the verification bench and the sharded parallel executor."""

from __future__ import annotations

import json

import pytest
from oracles.verification import bench_spanner, profile_reference, reference_record

from repro.experiments.harness import (
    available_workers,
    deterministic_shards,
    fork_available,
    resolve_worker_count,
    run_sharded,
)
from repro.experiments.bench import merge_run_into_file, render_rows
from repro.experiments.verify_bench import (
    SPEC,
    profile_source_vertices,
    run_verify_bench,
    verify_workload,
    workload_key,
)
from repro.workload_kinds import workload

#: The verify rows the ``repro bench verify`` CI step emits.
CI_VERIFY_KEYS = (
    "geometric-n300-r0.12-seed7-t1.5-bgreedy",
    "uniform-euclidean-n150-d2-seed7-t1.5-btheta",
)

PROFILE_FIELDS = ("pairs_checked", "max_stretch", "mean_stretch", "fraction_at_stretch_one")


def _square(shard: list[int]) -> list[int]:
    return [value * value for value in shard]


def _boom_on_one(shard: list[int]) -> int:
    if 1 in shard:
        raise ValueError("boom")
    return sum(shard)


def _fail_in_worker_only(shard: list[int]) -> int:
    # Pool workers are daemonic; the parent's in-process retry is not — so
    # this models a transient worker-side failure the retry must absorb.
    import multiprocessing

    if multiprocessing.current_process().daemon:
        raise RuntimeError("worker-only failure")
    return sum(shard)


class TestShardedExecutor:
    def test_shards_are_contiguous_and_cover(self):
        items = list(range(23))
        for count in (1, 2, 5, 23, 40):
            shards = deterministic_shards(items, count)
            assert [x for shard in shards for x in shard] == items
            assert all(shards)
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1

    def test_empty_items(self):
        assert deterministic_shards([], 4) == []

    def test_run_sharded_preserves_order(self):
        shards = deterministic_shards(list(range(17)), 6)
        inline = run_sharded(_square, shards, workers=1)
        assert [x for part in inline for x in part] == [i * i for i in range(17)]
        if fork_available():
            parallel = run_sharded(_square, shards, workers=3)
            assert parallel == inline

    def test_resolve_worker_count(self):
        assert resolve_worker_count(None) == 1
        assert resolve_worker_count(0) == 1
        assert resolve_worker_count(4) == 4
        assert resolve_worker_count(-1) == available_workers()

    def test_persistent_failure_names_shard_inline(self):
        from repro.errors import ShardFailureError

        shards = [[0], [1], [2], [3]]
        with pytest.raises(ShardFailureError) as excinfo:
            run_sharded(_boom_on_one, shards, workers=1)
        assert excinfo.value.shard_index == 1
        assert excinfo.value.shard_count == 4
        assert "boom" in str(excinfo.value)

    def test_persistent_failure_names_shard_parallel(self):
        from repro.errors import ShardFailureError

        if not fork_available():
            pytest.skip("fork start method unavailable")
        shards = [[0], [1], [2], [3]]
        with pytest.raises(ShardFailureError) as excinfo:
            run_sharded(_boom_on_one, shards, workers=4)
        assert excinfo.value.shard_index == 1
        assert excinfo.value.shard_count == 4

    def test_transient_worker_failure_recovered_by_retry(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        # Every shard fails inside its worker; the parent's in-process retry
        # succeeds, so the run completes with results in shard order.
        assert run_sharded(_fail_in_worker_only, [[1, 2], [3, 4]], workers=2) == [3, 7]


class TestVerifyBench:
    @pytest.fixture(scope="class")
    def small_run(self):
        return run_verify_bench(
            verify_workload(workload("geometric", n=60, radius=0.3), "greedy")
        )

    def test_record_shape(self, small_run):
        assert set(small_run["strategies"]) == {"indexed"}
        record = small_run["strategies"]["indexed"]
        for counter in SPEC.counters:
            assert counter in record
        assert record["verify_ok"] == 1.0

    def test_profiles_bit_identical_across_modes(self, small_run):
        """The recorded profile floats equal the seed per-pair reference's."""
        profile, _ = profile_reference(bench_spanner(small_run["workload"]))
        indexed = small_run["strategies"]["indexed"]
        for field, value in profile.as_row().items():
            assert indexed[field] == value, field

    def test_workload_key_includes_builder(self):
        row = verify_workload(workload("geometric", n=60), "mst")
        assert workload_key(row).endswith("-bmst")

    def test_presets_include_cross_check_and_scale_rows(self):
        assert set(CI_VERIFY_KEYS) <= set(SPEC.presets), "the CI cross-check rows"
        scale = [
            key for key, preset in SPEC.presets.items()
            if int(preset.workload["n"]) >= 10_000
        ]
        assert scale, "the n=10^4 exact edge-verification row is the headline"

    def test_profile_source_vertices_stride(self):
        from repro.graph.generators import path_graph

        graph = path_graph(10)
        assert profile_source_vertices(graph, None) is None
        chosen = profile_source_vertices(graph, 3)
        assert len(chosen) == 3
        assert chosen == [0, 3, 6]
        assert profile_source_vertices(graph, 100) == list(range(10))

    def test_merge_run_into_file(self, small_run, tmp_path):
        path = tmp_path / "BENCH_verify.json"
        document = merge_run_into_file(path, small_run, SPEC)
        key = workload_key(small_run["workload"])
        assert key in document["runs"]
        again = json.loads(path.read_text())
        assert again["runs"][key]["strategies"] == small_run["strategies"]
        rows = render_rows(small_run, SPEC)
        assert [row["mode"] for row in rows] == ["indexed"]

    def test_regression_gate_flags_cross_check_failures(self, small_run, tmp_path):
        """The gate flags a counter regression (the bench has no flags left:
        the cross-checks are the tier-1 tests below)."""
        import sys

        sys.path.insert(0, "scripts")
        try:
            from check_bench_regression import find_regressions
        finally:
            sys.path.pop(0)
        baseline_doc = {"runs": {workload_key(small_run["workload"]): small_run}}
        fresh_run = json.loads(json.dumps(small_run))
        fresh_doc = {"runs": {workload_key(small_run["workload"]): fresh_run}}
        assert find_regressions(baseline_doc, fresh_doc, SPEC) == []
        fresh_run["strategies"]["indexed"]["verify_settles"] *= 2.0
        assert any(
            "verify_settles" in problem
            for problem in find_regressions(baseline_doc, fresh_doc, SPEC)
        )

    def test_workers_do_not_change_the_record(self):
        row = verify_workload(workload("geometric", n=60, radius=0.3), "greedy")
        serial = run_verify_bench(row)
        parallel = run_verify_bench(row, workers=2)
        serial_record = serial["strategies"]["indexed"]
        parallel_record = parallel["strategies"]["indexed"]
        for field, value in serial_record.items():
            if field.endswith("_seconds"):
                continue
            assert parallel_record[field] == value, field


@pytest.mark.parametrize("key", CI_VERIFY_KEYS)
def test_ci_rows_match_the_reference(key):
    """On the CI verify rows the engine's verdicts equal the seed per-pair
    reference's, and its exact profile is bit-identical."""
    run = SPEC.run_key(key)
    record = run["strategies"]["indexed"]
    reference = reference_record(run["workload"])
    assert record["verify_ok"] == reference["verify_ok"] == 1.0
    assert {field: record[field] for field in PROFILE_FIELDS} == {
        field: reference[field] for field in PROFILE_FIELDS
    }


def test_reference_record_is_computed_once_per_workload_key():
    """The seed reference is cached by workload key: an equal row reuses
    the record, another builder gets its own."""
    row = verify_workload(workload("geometric", n=40, radius=0.35), "greedy")
    first = reference_record(row)
    assert first["verify_ok"] == 1.0
    assert reference_record(dict(row)) is first
    other = reference_record(verify_workload(workload("geometric", n=40, radius=0.35), "mst"))
    assert other is not first
