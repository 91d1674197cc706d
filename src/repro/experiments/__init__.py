"""Experiment harness: workloads, runners and the per-claim experiments.

Each experiment runs from the command line as ``repro experiment <id>``.  The
six ``BENCH_*.json`` trajectories live in :mod:`repro.experiments.bench`
and its bench modules (``repro bench <name>``); they are imported on use.
"""

from repro.experiments.harness import (
    ExperimentResult,
    deterministic_shards,
    run_sharded,
    timed,
)
from repro.experiments.reporting import render_table
from repro.experiments.workloads import WorkloadSpec, get_workload, list_workloads, register
from repro.experiments.experiments import (
    experiment_approximate_greedy,
    experiment_broadcast,
    experiment_comparison,
    experiment_degree,
    experiment_doubling_metrics,
    experiment_figure1,
    experiment_general_graphs,
    experiment_lemma3,
    experiment_routing,
)

__all__ = [
    "ExperimentResult",
    "timed",
    "deterministic_shards",
    "run_sharded",
    "render_table",
    "WorkloadSpec",
    "get_workload",
    "list_workloads",
    "register",
    "experiment_approximate_greedy",
    "experiment_broadcast",
    "experiment_comparison",
    "experiment_degree",
    "experiment_doubling_metrics",
    "experiment_figure1",
    "experiment_general_graphs",
    "experiment_lemma3",
    "experiment_routing",
]
