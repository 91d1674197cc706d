"""Shared configuration for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark file regenerates one of experiments E1–E9 (``repro
experiment``) or runs rows of one ``BENCH_*.json`` trajectory (``repro bench
<name>``).  Two things happen per file:

* pytest-benchmark times the core construction step (the timing columns of
  the tables ``scripts/regenerate_experiments.py`` writes), and
* the experiment table, or the table ``repro bench <name>`` prints for the
  timed row, is printed at the end of the run via a session-scoped report
  collector (``-s`` not required).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.bench import BenchSpec, render_rows
from repro.experiments.reporting import render_table

# The test oracles (tests/oracles/) that some benchmarks compare against.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

_REPORTS: list[str] = []


def pytest_configure(config):
    """Register the markers used by the benchmark suite."""
    config.addinivalue_line(
        "markers",
        "bench_regression: compares a fresh BENCH_<name>.json run's operation "
        "counts, cross-check flags and gate against the committed "
        "benchmarks/BENCH_<name>.json (scripts/check_bench_regression.py)",
    )


def record_experiment_report(text: str) -> None:
    """Collect an experiment report for printing at the end of the session."""
    _REPORTS.append(text)


@pytest.fixture(scope="session")
def experiment_report_collector():
    """Fixture handing benchmarks the report collector."""
    return record_experiment_report


@pytest.fixture(scope="session")
def bench_report_collector():
    """Fixture collecting a bench run's table as ``repro bench <name>`` prints it."""

    def collect(run: dict, spec: BenchSpec) -> None:
        key = spec.workload_key(run["workload"])
        record_experiment_report(
            render_table(render_rows(run, spec), title=f"bench {spec.name}: {key}")
        )

    return collect


def pytest_sessionfinish(session, exitstatus):
    """Print every collected experiment table after the benchmark summary."""
    if not _REPORTS:
        return
    print("\n")
    print("=" * 78)
    print("EXPERIMENT TABLES (paper-claim reproductions)")
    print("=" * 78)
    for report in _REPORTS:
        print()
        print(report)
        print("-" * 78)
