"""The shared BENCH framework: key round-trips, fail-closed document reads and
the regression checker's reaction to every perturbation of a committed
document."""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.core.distance_oracle import ORACLE_FACTORIES
from repro.errors import BenchDocumentError, UnknownWorkloadError
from repro.experiments.bench import BENCHES, load_document, merge_run_into_file

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = sorted((REPO_ROOT / "benchmarks").glob("BENCH_*.json"))

sys.path.insert(0, str(REPO_ROOT / "scripts"))
try:
    import check_bench_regression as checker
finally:
    sys.path.pop(0)

#: Non-preset keys the CLI tests run, per bench.
AD_HOC_KEYS = {
    "oracles": [
        "uniform-euclidean-n30-d2-seed7-t2.0",
        "uniform-euclidean-n40-d2-seed7-t1.5",
        "clustered-euclidean-n30-d2-c3-seed7-t2.0",
        "erdos-renyi-n30-p0.15-seed7-t2.0",
        "grid-euclidean-s5-d2-t1.5",
    ],
    "overlays": [
        "geometric-n40-r0.3-seed7-t1.5",
        "uniform-euclidean-n40-d2-seed7-t1.5",
        "erdos-renyi-n30-p0.15-seed7-t1.5",
    ],
    "verify": [
        "geometric-n50-r0.3-seed7-t1.5-bgreedy",
        "erdos-renyi-n30-p0.15-seed7-t1.5-btheta",
        "uniform-euclidean-n40-d2-seed7-t1.5-bbaswana-sen",
    ],
    "build": ["bucketed-n60-d8.0-seed3-t2.0", "uniform-euclidean-n40-d2-seed7-t1.5"],
    "queries": ["queries-bucketed-n500-d8.0-seed3-q64-s4-qs11"],
    "service": [
        "geometric-n80-r0.25-seed7-t1.5",
        "bucketed-n300-d16.0-seed3-t2.0",
    ],
}


def test_registry_names_match_the_committed_documents():
    assert sorted(BENCHES) == sorted(path.stem[len("BENCH_"):] for path in DOCUMENTS)
    for name, spec in BENCHES.items():
        assert spec.name == name


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_keys_round_trip(name):
    spec = BENCHES[name]
    for key, preset in spec.presets.items():
        assert spec.workload_key(preset.workload) == key
        assert spec.parse_key(key) == preset.workload
    for key in AD_HOC_KEYS[name]:
        assert spec.workload_key(spec.parse_key(key)) == key
    for workload in [preset.workload for preset in spec.presets.values()]:
        assert spec.parse_key(spec.workload_key(workload)) == workload


@pytest.mark.parametrize(
    "name, key",
    [
        ("oracles", "no-such-row"),
        ("oracles", "uniform-euclidean-n30-d2-seed7-t2"),  # not canonical: t2.0
        ("oracles", "uniform-euclidean-nX-d2-seed7-t2.0"),
        ("build", "erdos-renyi-n30-p0.15-seed7-t2.0"),  # graph kind the build bench cannot build
        ("service", "geometric-n80-r0.25-seed7-t1.5-kmaybe-w2"),
        ("verify", "geometric-n50-r0.3-seed7-t1.5"),
    ],
)
def test_malformed_keys_raise_a_typed_error(name, key):
    with pytest.raises(UnknownWorkloadError):
        BENCHES[name].parse_key(key)


BAD_DOCUMENTS = {
    "truncated": '{"schema": 1, "runs": {"k": ',
    "empty": "",
    "not-an-object": "[1, 2, 3]",
    "no-runs-mapping": '{"schema": 1, "runs": []}',
}


@pytest.mark.parametrize("shape", sorted(BAD_DOCUMENTS))
def test_bad_bench_documents_fail_closed(shape, tmp_path, capsys):
    spec = BENCHES["queries"]
    text = BAD_DOCUMENTS[shape]
    path = tmp_path / "BENCH_queries.json"
    path.write_text(text)
    run = {"workload": spec.presets[next(iter(spec.presets))].workload, "strategies": {}}

    with pytest.raises(BenchDocumentError):
        load_document(path)
    with pytest.raises(BenchDocumentError):
        merge_run_into_file(path, run, spec)
    assert path.read_text() == text

    # The CLI refuses before running anything; the checker refuses too.
    key = "queries-bucketed-n50-d4.0-seed3-q4-s2-qs11"
    assert repro_main(["bench", "queries", "--workloads", key, "--output", str(path)]) == 2
    assert str(path) in capsys.readouterr().out
    assert path.read_text() == text
    assert checker.main(["--fresh-dir", str(tmp_path), "--baseline-dir", str(REPO_ROOT / "benchmarks")]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_presets_name_runnable_strategies_and_committed_gate_evidence(name):
    """Every preset runs (its strategies and repair oracle exist) and every
    gated preset has a committed row carrying the gate marker — a preset
    pointing at a deleted oracle, or a gate without evidence, fails here."""
    spec = BENCHES[name]
    committed = load_document(REPO_ROOT / "benchmarks" / f"BENCH_{name}.json")["runs"]
    for key, preset in spec.presets.items():
        assert set(preset.strategies) <= set(spec.strategy_names), key
        if "repair_oracle" in preset.workload:
            assert preset.workload["repair_oracle"] in ORACLE_FACTORIES, key
        if preset.gated:
            assert committed.get(key, {}).get(spec.gate.marker) is True, key


def test_checker_needs_a_matching_fresh_document(tmp_path):
    args = ["--fresh-dir", str(tmp_path), "--baseline-dir", str(REPO_ROOT / "benchmarks")]
    assert checker.main(args) == 2
    fresh = tmp_path / "BENCH_queries.json"
    fresh.write_text((REPO_ROOT / "benchmarks" / "BENCH_queries.json").read_text())
    assert checker.main(args) == 0


def _reported(problems: list[str], *needles: str) -> bool:
    return any(all(needle in problem for needle in needles) for problem in problems)


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.stem)
def test_checker_reports_every_perturbation_of_a_committed_document(path):
    spec = BENCHES[path.stem[len("BENCH_"):]]
    baseline = load_document(path)
    assert checker.find_regressions(baseline, copy.deepcopy(baseline), spec) == []

    def perturbed(mutate) -> list[str]:
        fresh = copy.deepcopy(baseline)
        mutate(fresh["runs"])
        return checker.find_regressions(baseline, fresh, spec)

    counters_seen, flags_seen, gates_seen = set(), set(), 0
    for key, run in baseline["runs"].items():
        for name, record in run["strategies"].items():
            for counter in set(spec.counters) & set(record):
                counters_seen.add(counter)

                def grow(runs, key=key, name=name, counter=counter):
                    value = runs[key]["strategies"][name][counter]
                    runs[key]["strategies"][name][counter] = value * 1.3 if value else 1.0

                def drop(runs, key=key, name=name, counter=counter):
                    del runs[key]["strategies"][name][counter]

                assert _reported(perturbed(grow), key, f"{name}.{counter}")
                assert _reported(perturbed(drop), key, f"{name}.{counter}", "missing")
        for flag in set(spec.flags) & set(run):
            flags_seen.add(flag)

            def falsify(runs, key=key, flag=flag):
                runs[key][flag] = False

            assert _reported(perturbed(falsify), key, flag)
        if spec.gate is not None and run.get(spec.gate.marker):
            gates_seen += 1
            gate = spec.gate
            past = gate.bar * (0.99 if gate.op == "min" else 1.01)

            def cross(runs, key=key):
                runs[key][gate.field] = past

            assert _reported(perturbed(cross), key, gate.field)
            committed = copy.deepcopy(baseline)
            cross(committed["runs"])
            assert _reported(checker.gate_problems(committed, spec, "baseline"), key)
            # An ungated fresh copy of the row does not hide the committed one.
            unmarked = copy.deepcopy(baseline)
            del unmarked["runs"][key][gate.marker]
            found = checker.find_regressions(committed, unmarked, spec)
            assert _reported(found, key, f"baseline {gate.field}")

    # Every counter, flag and gate of the spec is exercised by the document.
    assert counters_seen == set(spec.counters)
    assert flags_seen == set(spec.flags)
    assert (gates_seen > 0) == (spec.gate is not None)


def test_strategies_only_in_the_baseline_are_allowed():
    spec = BENCHES["oracles"]
    baseline = load_document(REPO_ROOT / "benchmarks" / "BENCH_oracles.json")
    fresh = copy.deepcopy(baseline)
    for run in fresh["runs"].values():
        run["strategies"] = dict(list(run["strategies"].items())[:1])
    assert checker.find_regressions(baseline, fresh, spec) == []


def test_run_key_applies_preset_gate_and_extras():
    calls = []

    def fake_run(workload, strategies=(), **options):
        calls.append((strategies, options))
        return {"workload": dict(workload), "strategies": {}}

    queries = replace(BENCHES["queries"], run=fake_run)
    assert queries.run_key("queries-bucketed-n2000-d8.0-seed3-q512-s8-qs11")["gate_query_speedup"]
    assert calls[-1] == (("per-query-heapq", "batched-engine"), {})
    ad_hoc = queries.run_key("queries-bucketed-n50-d4.0-seed3-q4-s2-qs11", ["batched-engine"])
    assert "gate_query_speedup" not in ad_hoc
    assert calls[-1] == (("batched-engine",), {})

    verify = replace(BENCHES["verify"], run=fake_run)
    verify.run_key("uniform-euclidean-n2000-d2-seed7-t1.5-btheta", workers=2)
    assert calls[-1] == ((), {"profile_sources": 256, "workers": 2})
