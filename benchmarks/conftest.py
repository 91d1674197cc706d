"""Shared configuration for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark file regenerates one of experiments E1–E8 (``repro experiment``).
Two things happen per file:

* pytest-benchmark times the core construction step (the timing columns of
  the tables ``scripts/regenerate_experiments.py`` writes), and
* the full experiment table is printed to stdout (``-s`` not required: the
  tables are emitted through the ``record_property`` mechanism *and* printed at
  the end of the run via a session-scoped report collector).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

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
