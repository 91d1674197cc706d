#!/usr/bin/env python
"""Gate every committed BENCH trajectory, and diff it against fresh runs.

The six trajectories ``benchmarks/BENCH_<name>.json`` (emitted by
``repro bench <name>``) record deterministic operation counts per strategy.
Unlike wall-clock time these are fixed for a fixed workload, so they can be
diffed machine-independently: a count that grew means the hot path really
does more work, not that CI got a noisy neighbour.

For each committed document the checker takes the bench's spec from
:data:`repro.experiments.bench.BENCHES` (counters, cross-check flags and
the one gate) and:

* checks the gate on every committed row marked for it (e.g. the ≥3×
  query-vs-baseline bar on the gated query row), so the committed scale
  evidence is re-validated even when CI regenerates only the small rows;
* if ``--fresh-dir`` holds a document with the same file name, diffs every
  shared workload key: each spec counter of a shared strategy may grow by at
  most ``--threshold`` (a zero baseline must stay zero, and a counter the
  baseline records may not vanish from the fresh record), every cross-check
  flag must be true, and the gate holds on fresh rows too.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py --fresh-dir fresh

Exit code 0 when clean, 1 on any problem, 2 when no fresh document matched
a committed one or a document is unreadable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import BenchDocumentError
from repro.experiments.bench import BENCHES, BenchSpec, load_document

DEFAULT_THRESHOLD = 0.25


def gate_problems(document: dict, spec: BenchSpec, label: str, skip=()) -> list[str]:
    """Gated rows of ``document`` (other than the ``skip`` keys) past the bar."""
    gate = spec.gate
    if gate is None:
        return []
    bound = "below the minimum" if gate.op == "min" else "above the maximum"
    return [
        f"{key}: {label} {gate.field} {run.get(gate.field)} is {bound} "
        f"{gate.bar:g} of a {gate.marker} row"
        for key, run in sorted(document["runs"].items())
        if run.get(gate.marker) and key not in skip and gate.violated(run)
    ]


def find_regressions(
    baseline: dict, fresh: dict, spec: BenchSpec, *, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Return human-readable regression descriptions (empty list = all good).

    Counters are compared per strategy present in both records of a shared
    workload key; a strategy only in the baseline is allowed (``--strategies``
    subsets are legitimate).
    """
    baseline_runs, fresh_runs = baseline["runs"], fresh["runs"]
    problems = gate_problems(fresh, spec, "fresh")
    # A committed gated row is checked unless a fresh gated run replaces it.
    regated = {key for key, run in fresh_runs.items() if spec.gate and run.get(spec.gate.marker)}
    problems += gate_problems(baseline, spec, "baseline", skip=regated)
    shared = sorted(set(baseline_runs) & set(fresh_runs))
    if not shared:
        problems.append("no shared workload keys between baseline and fresh runs")
    for key in shared:
        base_run, fresh_run = baseline_runs[key], fresh_runs[key]
        for flag, value in spec.flag_values(fresh_run).items():
            if not value:
                problems.append(
                    f"{key}: {flag} is false — a cross-checked engine diverged "
                    "or a guarantee was violated in the fresh run"
                )
        base_strategies = base_run.get("strategies", {})
        fresh_strategies = fresh_run.get("strategies", {})
        for name in sorted(set(base_strategies) & set(fresh_strategies)):
            for counter in spec.counters:
                base_value = base_strategies[name].get(counter)
                fresh_value = fresh_strategies[name].get(counter)
                if base_value is None:
                    continue
                if fresh_value is None:
                    problems.append(
                        f"{key}: {name}.{counter} is missing from the fresh run "
                        f"(baseline {base_value:.0f})"
                    )
                elif base_value == 0:
                    # A zero baseline must stay zero: any nonzero fresh count
                    # is new work the gate would otherwise never see.
                    if fresh_value > 0:
                        problems.append(
                            f"{key}: {name}.{counter} regressed from a zero "
                            f"baseline to {fresh_value:.0f}"
                        )
                elif fresh_value / base_value > 1.0 + threshold:
                    problems.append(
                        f"{key}: {name}.{counter} regressed "
                        f"{fresh_value / base_value:.2f}x ({base_value:.0f} -> "
                        f"{fresh_value:.0f}, threshold {1.0 + threshold:.2f}x)"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir", required=True, help="directory of fresh BENCH_<name>.json documents"
    )
    parser.add_argument(
        "--baseline-dir", default="benchmarks", help="directory of the committed documents"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional operation-count increase (0.25 = +25%%)",
    )
    args = parser.parse_args(argv)

    problems: list[str] = []
    matched = 0
    for baseline_path in sorted(Path(args.baseline_dir).glob("BENCH_*.json")):
        spec = BENCHES[baseline_path.stem[len("BENCH_"):]]
        fresh_path = Path(args.fresh_dir) / baseline_path.name
        try:
            baseline = load_document(baseline_path)
            if fresh_path.exists():
                matched += 1
                found = find_regressions(
                    baseline, load_document(fresh_path), spec, threshold=args.threshold
                )
            else:
                found = gate_problems(baseline, spec, "baseline")
        except BenchDocumentError as error:
            print(str(error), file=sys.stderr)
            return 2
        problems.extend(f"[{spec.name}] {problem}" for problem in found)
    if not matched:
        print(
            f"no fresh document in {args.fresh_dir} matches a committed "
            f"BENCH_*.json in {args.baseline_dir}",
            file=sys.stderr,
        )
        return 2
    if problems:
        print("operation-count regressions detected:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"no operation-count regressions in {matched} document(s) "
        f"(threshold +{args.threshold:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
