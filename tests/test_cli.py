"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import _submit_workload, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_experiment_command(self):
        args = build_parser().parse_args(["experiment", "E1", "--quick"])
        assert args.id == "E1"
        assert args.quick is True

    def test_parses_spanner_command_defaults(self):
        args = build_parser().parse_args(["spanner", "grid-graph"])
        assert args.workload == "grid-graph"
        assert args.stretch == 2.0
        assert args.measure_stretch is False


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        output = capsys.readouterr().out
        assert "random-graph-small" in output
        assert "uniform-2d-small" in output

    def test_list_workloads_filtered(self, capsys):
        assert main(["list-workloads", "--kind", "metric"]) == 0
        output = capsys.readouterr().out
        assert "uniform-2d-small" in output
        assert "random-graph-small" not in output

    def test_figure1(self, capsys):
        assert main(["figure1", "--epsilon", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "[E1]" in output
        assert "petersen_edges_kept" in output

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "E2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "[E2]" in output
        assert "fixed_point" in output

    def test_experiment_lowercase_id(self, capsys):
        assert main(["experiment", "e1", "--quick"]) == 0
        assert "[E1]" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_compare_small(self, capsys):
        assert main(["compare", "--n", "40"]) == 0
        output = capsys.readouterr().out
        assert "greedy" in output and "wspd" in output

    def test_spanner_on_graph_workload(self, capsys):
        assert main(["spanner", "grid-graph", "--stretch", "2.0"]) == 0
        output = capsys.readouterr().out
        assert "lightness" in output

    def test_spanner_on_metric_workload(self, capsys):
        assert main(["spanner", "uniform-2d-small", "--stretch", "1.5", "--measure-stretch"]) == 0
        output = capsys.readouterr().out
        assert "measured_stretch" in output

    def test_bench_oracles_writes_trajectory_with_memory(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "oracles", "--workloads", "uniform-euclidean-n30-d2-seed7-t2.0",
             "--strategies", "cached", "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "identical_edge_sets: True" in output
        assert "peak_memory_bytes" in output
        assert out.exists()

    def test_bench_oracles_no_memory_flag(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "oracles", "--workloads", "uniform-euclidean-n30-d2-seed7-t2.0",
             "--strategies", "cached", "--no-memory", "--output", str(out)]
        ) == 0
        assert "peak_memory_bytes" not in capsys.readouterr().out

    def test_bench_oracles_rejects_unknown_strategy(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "oracles", "--workloads", "uniform-euclidean-n30-d2-seed7-t2.0",
             "--strategies", "warp-drive", "--output", str(out)]
        ) == 2
        assert "unknown oracles strategies" in capsys.readouterr().out

    def test_bench_oracles_approx_strategy_row(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "oracles", "--workloads", "uniform-euclidean-n40-d2-seed7-t1.5",
             "--no-memory", "--strategies", "cached,approx-greedy",
             "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "approx-greedy" in output
        assert "identical_edge_sets: True" in output

    def test_bench_oracles_rejects_empty_strategies(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "oracles", "--workloads", "uniform-euclidean-n30-d2-seed7-t2.0",
             "--strategies", "", "--output", str(out)]
        ) == 2
        assert "unknown oracles strategies" in capsys.readouterr().out

    def test_bench_oracles_rejects_approx_on_graph_workload(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "oracles", "--workloads", "erdos-renyi-n30-p0.15-seed7-t2.0",
             "--strategies", "approx-greedy", "--no-memory", "--output", str(out)]
        ) == 2
        assert "cannot bench" in capsys.readouterr().out

    def test_bench_oracles_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        for key in ("no-such-row", "uniform-euclidean-n30-d2-seed7-t2"):
            assert main(
                ["bench", "oracles", "--workloads", key, "--output", str(out)]
            ) == 2
            assert "unknown oracles workload keys" in capsys.readouterr().out
        assert not out.exists()

    def test_bench_oracles_clustered_kind(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "oracles", "--workloads", "clustered-euclidean-n30-d2-c3-seed7-t2.0",
             "--strategies", "cached", "--no-memory", "--output", str(out)]
        ) == 0
        assert "clustered-euclidean-n30" in capsys.readouterr().out

    def test_list_builders(self, capsys):
        assert main(["list-builders"]) == 0
        output = capsys.readouterr().out
        for name in ("greedy", "theta", "baswana-sen", "mst"):
            assert name in output

    def test_spanner_with_builder(self, capsys):
        assert main(["spanner", "uniform-2d-small", "--builder", "theta",
                     "--stretch", "1.5"]) == 0
        assert "theta 1.5-spanner" in capsys.readouterr().out

    def test_spanner_rejects_builder_workload_mismatch(self, capsys):
        assert main(["spanner", "grid-graph", "--builder", "theta"]) == 2
        assert "cannot span" in capsys.readouterr().out

    def test_bench_overlays_writes_trajectory(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench", "overlays", "--workloads", "geometric-n40-r0.3-seed7-t1.5",
             "--strategies", "greedy,mst", "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "bench overlays: geometric-n40" in output
        assert out.exists()
        run = json.loads(out.read_text())["runs"]["geometric-n40-r0.3-seed7-t1.5"]
        assert set(run["strategies"]) == {"greedy", "mst"}
        for record in run["strategies"].values():
            assert record["overlay_route_settles"] > 0
            assert record["overlay_sync_settles"] > 0

    def test_bench_overlays_euclidean_kind(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench", "overlays", "--workloads", "uniform-euclidean-n40-d2-seed7-t1.5",
             "--strategies", "theta,yao,mst", "--output", str(out)]
        ) == 0
        assert "uniform-euclidean-n40" in capsys.readouterr().out

    def test_bench_overlays_rejects_unknown_builder(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench", "overlays", "--workloads", "geometric-n40-r0.3-seed7-t1.5",
             "--strategies", "warp-drive", "--output", str(out)]
        ) == 2
        assert "unknown overlays strategies" in capsys.readouterr().out

    def test_bench_overlays_rejects_builder_workload_mismatch(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench", "overlays", "--workloads", "erdos-renyi-n30-p0.15-seed7-t1.5",
             "--strategies", "theta", "--output", str(out)]
        ) == 2
        assert "cannot bench" in capsys.readouterr().out

    def test_bench_overlays_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench", "overlays", "--workloads", "no-such-row", "--output", str(out)]
        ) == 2
        assert "unknown overlays workload keys" in capsys.readouterr().out

    def test_bench_verify_writes_trajectory(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench", "verify", "--workloads", "geometric-n50-r0.3-seed7-t1.5-bgreedy",
             "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "bench verify: geometric-n50" in output
        run = json.loads(out.read_text())["runs"]["geometric-n50-r0.3-seed7-t1.5-bgreedy"]
        assert set(run["strategies"]) == {"indexed"}
        record = run["strategies"]["indexed"]
        assert record["verify_ok"] == 1.0
        assert record["verify_settles"] > 0
        assert record["profile_settles"] > 0

    def test_bench_verify_single_mode_and_workers(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench", "verify", "--workloads", "geometric-n50-r0.3-seed7-t1.5-bgreedy",
             "--workers", "2", "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "verify_ok" in output

    def test_bench_verify_rejects_unknown_mode(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench", "verify", "--workloads", "geometric-n50-r0.3-seed7-t1.5-bgreedy",
             "--strategies", "psychic", "--output", str(out)]
        ) == 2
        assert "unknown verify strategies" in capsys.readouterr().out

    def test_bench_verify_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench", "verify", "--workloads", "no-such-row", "--output", str(out)]
        ) == 2
        assert "unknown verify workload keys" in capsys.readouterr().out

    def test_bench_verify_rejects_builder_workload_mismatch(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench", "verify", "--workloads", "erdos-renyi-n30-p0.15-seed7-t1.5-btheta",
             "--output", str(out)]
        ) == 2
        assert "cannot bench" in capsys.readouterr().out

    def test_bench_build_writes_trajectory(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench", "build", "--workloads", "bucketed-n60-d8.0-seed3-t2.0",
             "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "builds_match: True" in output
        assert "csr-parallel-w1" in output
        assert out.exists()

    def test_bench_build_euclidean_kind(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench", "build", "--workloads", "uniform-euclidean-n40-d2-seed7-t1.5",
             "--output", str(out)]
        ) == 0
        assert "builds_match: True" in capsys.readouterr().out

    def test_bench_build_rejects_unknown_strategy(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench", "build", "--workloads", "bucketed-n40-d8.0-seed3-t2.0",
             "--strategies", "warp-drive", "--output", str(out)]
        ) == 2
        assert "unknown build strategies" in capsys.readouterr().out

    def test_bench_build_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench", "build", "--workloads", "no-such-row", "--output", str(out)]
        ) == 2
        assert "unknown build workload keys" in capsys.readouterr().out

    def test_bench_rejects_options_the_bench_does_not_take(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench", "overlays", "--workloads", "geometric-n40-r0.3-seed7-t1.5",
             "--workers", "2", "--output", str(out)]
        ) == 2
        assert "takes no workers option" in capsys.readouterr().out
        assert main(
            ["bench", "service", "--workloads", "geometric-n40-r0.3-seed7-t1.5",
             "--strategies", "service", "--output", str(out)]
        ) == 2
        assert "unknown service strategies" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        ("name", "key", "column"),
        [
            ("verify", "geometric-n60-r0.16-seed7-t1.5-bgreedy", "verify_ok"),
            ("build", "bucketed-n60-d16.0-seed3-t2.0", "build_filter_settles"),
            ("service", "geometric-n60-r0.16-seed7-t1.5", "service_lease_reclaims"),
        ],
        ids=["verify", "build", "service"],
    )
    def test_bench_row_prints_its_table_and_flags(self, capsys, tmp_path, name, key, column):
        """One small row of each trajectory prints its table; exit 0 means
        every cross-check flag it recorded held."""
        assert main(["bench", name, "--workloads", key, "--output", str(tmp_path / "b.json")]) == 0
        output = capsys.readouterr().out
        assert f"bench {name}: {key}" in output
        assert column in output

    def test_profile_build_covers_both_greedy_builders(self, capsys, tmp_path):
        out = tmp_path / "profile_build.txt"
        assert main(
            ["profile", "--workload", "build", "--n", "300", "--top", "60",
             "--output", str(out)]
        ) == 0
        report = out.read_text()
        resumes = report.splitlines()[0]
        assert resumes.startswith("metric build (uniform n=250, t=1.5): dijkstra_settles ")
        assert " / balls_resumed " in resumes and " / settles_resumed " in resumes
        for key in ("cache_hits", "cache_misses", "coverage_entries"):
            assert f" / {key} " in resumes
        instance = report.splitlines()[1]
        assert instance.startswith("instance (bucketed n=300, unprofiled): ")
        assert float(instance.split(": ")[1].removesuffix(" s")) > 0
        assert "(build_workload_instance)" in report
        assert "(greedy_spanner)" in report
        assert "(parallel_greedy_spanner)" in report
        assert "(ball)" in report
        assert "(sorted_pair_stream)" in report

    def test_profile_queries_answers_the_batch_fresh_and_resumed(self, tmp_path):
        out = tmp_path / "profile_queries.txt"
        assert main(
            ["profile", "--workload", "queries", "--n", "300", "--queries", "64",
             "--sources", "4", "--top", "60", "--output", str(out)]
        ) == 0
        report = out.read_text().splitlines()
        # One fresh batch for the bench row, then the 120-batch skewed stream
        # on one engine, whose counters head the report.
        engine = next(line for line in report if "(run_queries_ids)" in line)
        assert engine.split()[0] == "121"
        assert any("(reference_queries_ids)" in line for line in report)
        head = dict(
            field.rsplit(" ", 1) for field in report[0].split(": ", 1)[1].split(" / ")
        )
        assert report[0].startswith("skewed stream (120 batches): ")
        assert list(head) == ["sources", "resumed", "evicted", "settles"]
        assert int(head["resumed"]) > 0


class TestServiceCommands:
    SUBMIT = [
        "service", "submit", "--kind", "geometric",
        "--n", "80", "--radius", "0.25", "--seed", "3", "--stretch", "1.5",
    ]

    def _root(self, tmp_path):
        return ["--root", str(tmp_path / "svc")]

    def test_submit_run_status_cache_happy_path(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        assert "submitted job-" in capsys.readouterr().out
        assert main(["service", "run-workers"] + root) == 0
        output = capsys.readouterr().out
        assert "jobs_done: 1" in output
        assert "cache_puts: 1" in output
        assert main(["service", "status"] + root) == 0
        output = capsys.readouterr().out
        assert "done" in output
        assert "| greedy |" in output  # the tier column
        assert main(["service", "cache", "--verify"] + root) == 0
        output = capsys.readouterr().out
        assert "artifacts: 1" in output
        assert "corrupt: 0" in output

    def test_status_of_a_finished_job_prints_its_history(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert main(["service", "run-workers"] + root) == 0
        assert "queue_records_read: 1" in capsys.readouterr().out
        assert (tmp_path / "svc" / "jobs" / "finished" / f"{job_id}.json").exists()
        assert main(["service", "status", job_id] + root) == 0
        history = capsys.readouterr().out
        assert " submitted" in history
        assert f"claimed by worker-{os.getpid()} (attempt 1)" in history
        assert f"completed by worker-{os.getpid()}" in history

    def test_warm_resubmit_is_a_cache_hit(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        assert main(["service", "run-workers"] + root) == 0
        assert main(self.SUBMIT + root) == 0
        capsys.readouterr()
        assert main(["service", "run-workers"] + root) == 0
        assert "cache_hits: 1" in capsys.readouterr().out

    def test_failed_job_surfaces_traceback_and_exits_nonzero(self, capsys, tmp_path):
        root = self._root(tmp_path)
        # theta cannot serve a graph workload: the chain has no viable tier.
        assert main(self.SUBMIT + root + ["--chain", "theta", "--max-attempts", "1"]) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert main(["service", "run-workers"] + root) == 1
        assert "TimeBudgetExceededError" in capsys.readouterr().out
        assert main(["service", "status", job_id] + root) == 1
        output = capsys.readouterr().out
        assert "quarantined" in output
        assert "Traceback" in output
        # The full table also flags it.
        assert main(["service", "status"] + root) == 1

    def test_corrupt_cache_verify_exits_nonzero_with_digests(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        assert main(["service", "run-workers"] + root) == 0
        payload = next((tmp_path / "svc" / "cache" / "objects").glob("*/*/payload.json"))
        payload.write_bytes(b"corrupted")
        capsys.readouterr()
        assert main(["service", "cache", "--verify"] + root) == 1
        output = capsys.readouterr().out
        assert "CORRUPT" in output
        assert "sha256" in output
        assert "quarantined" in output

    def test_stale_manifest_is_reported_not_corrupt(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        assert main(["service", "run-workers"] + root) == 0
        path = next((tmp_path / "svc" / "cache" / "objects").glob("*/*/manifest.json"))
        manifest = json.loads(path.read_text())
        manifest["schema"] = 1
        del manifest["head"], manifest["head_sha256"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["service", "cache", "--verify"] + root) == 0
        assert "corrupt: 0; stale: 1" in capsys.readouterr().out
        assert path.exists(), "a stale artifact is left for the rebuild, not quarantined"

    @pytest.mark.parametrize(
        "kind, expected",
        [
            (
                "geometric",
                {"kind": "geometric", "n": 300, "radius": 0.12, "seed": 7, "stretch": 1.5},
            ),
            (
                "euclidean",
                {"kind": "uniform-euclidean", "n": 300, "dim": 2, "seed": 7, "stretch": 1.5},
            ),
            (
                "clustered",
                {"kind": "clustered-euclidean", "n": 300, "dim": 2, "clusters": 50, "seed": 7,
                 "stretch": 1.5},
            ),
            ("grid", {"kind": "grid-euclidean", "side": 100, "dim": 2, "stretch": 1.5}),
            ("graph", {"kind": "erdos-renyi", "n": 300, "p": 0.15, "seed": 7, "stretch": 1.5}),
            (
                "bucketed",
                {"kind": "bucketed-geometric", "n": 300, "degree": 96.0, "seed": 7,
                 "stretch": 1.5},
            ),
        ],
    )
    def test_submit_writes_each_kinds_default_workload(self, kind, expected, capsys, tmp_path):
        """Every ``--kind`` with default flags: the job record carries the
        exact workload (fields and types), built in the expected key order."""
        from repro.service.queue import JobQueue

        argv = ["service", "submit", "--kind", kind] + self._root(tmp_path)
        assert main(argv) == 0
        (job,) = JobQueue(tmp_path / "svc").list_jobs()
        workload = job.spec["workload"]
        assert workload == expected
        assert {name: type(value) for name, value in workload.items()} == {
            name: type(value) for name, value in expected.items()
        }
        submitted = _submit_workload(build_parser().parse_args(argv))
        assert list(submitted.items()) == list(expected.items())

    def test_submit_rejects_unknown_chain_builder(self, capsys, tmp_path):
        assert main(self.SUBMIT + self._root(tmp_path) + ["--chain", "nope"]) == 2
        assert "unknown chain builders" in capsys.readouterr().out

    def test_status_unknown_job_exits_2(self, capsys, tmp_path):
        assert main(["service", "status", "job-zzz-0000"] + self._root(tmp_path)) == 2
        assert "not in the queue" in capsys.readouterr().out

    def test_bench_service_writes_trajectory(self, capsys, tmp_path):
        output_path = tmp_path / "BENCH_service.json"
        assert main([
            "bench", "service", "--workloads", "geometric-n80-r0.25-seed7-t1.5",
            "--output", str(output_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "bench service" in output
        assert "warm_cache_hit: True" in output
        assert "rebuild_matches: True" in output
        import json as _json

        document = _json.loads(output_path.read_text())
        assert len(document["runs"]) == 1
