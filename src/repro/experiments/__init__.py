"""Experiment harness: workloads, runners and the per-claim experiments.

Each experiment runs from the command line as ``repro experiment <id>``.
"""

from repro.experiments.harness import (
    ExperimentResult,
    Stopwatch,
    deterministic_shards,
    merge_counters,
    run_sharded,
    timed,
)
from repro.experiments.reporting import render_comparison, render_table
from repro.experiments.workloads import WorkloadSpec, get_workload, list_workloads, register
from repro.experiments.experiments import (
    experiment_approximate_greedy,
    experiment_broadcast,
    experiment_build_matrix,
    experiment_comparison,
    experiment_degree,
    experiment_doubling_metrics,
    experiment_figure1,
    experiment_general_graphs,
    experiment_lemma3,
    experiment_oracle_matrix,
    experiment_overlay_matrix,
    experiment_routing,
    experiment_verify_matrix,
    run_all_experiments,
)
from repro.experiments.oracle_bench import (
    euclidean_workload,
    graph_workload,
    merge_run_into_file,
    run_oracle_matrix,
    workload_key,
)
from repro.experiments.overlay_bench import (
    OVERLAY_PRESETS,
    geometric_workload,
    run_overlay_bench,
)
from repro.experiments.verify_bench import (
    VERIFY_PRESETS,
    run_verify_bench,
    verify_workload,
)
from repro.experiments.build_bench import (
    BUILD_PRESETS,
    bucketed_workload,
    run_build_bench,
)

__all__ = [
    "ExperimentResult",
    "Stopwatch",
    "timed",
    "deterministic_shards",
    "merge_counters",
    "run_sharded",
    "render_comparison",
    "render_table",
    "WorkloadSpec",
    "get_workload",
    "list_workloads",
    "register",
    "experiment_approximate_greedy",
    "experiment_broadcast",
    "experiment_build_matrix",
    "experiment_comparison",
    "experiment_degree",
    "experiment_doubling_metrics",
    "experiment_figure1",
    "experiment_general_graphs",
    "experiment_lemma3",
    "experiment_oracle_matrix",
    "experiment_overlay_matrix",
    "experiment_routing",
    "experiment_verify_matrix",
    "run_all_experiments",
    "euclidean_workload",
    "graph_workload",
    "merge_run_into_file",
    "run_oracle_matrix",
    "workload_key",
    "OVERLAY_PRESETS",
    "geometric_workload",
    "run_overlay_bench",
    "VERIFY_PRESETS",
    "run_verify_bench",
    "verify_workload",
    "BUILD_PRESETS",
    "bucketed_workload",
    "run_build_bench",
]
