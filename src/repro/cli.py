"""Command-line interface for the reproduction.

Entry points (also usable as ``python -m repro.cli <command>``):

* ``list-workloads`` — print the workload registry.
* ``list-builders`` — print the spanner-builder registry.
* ``figure1`` — reproduce the paper's Figure 1 example.
* ``experiment <id>`` — run one experiment of the ``_EXPERIMENTS`` index
  below (E1–E15) and print its table.  ``--quick`` shrinks the workloads.
* ``compare`` — run the Euclidean construction comparison on a chosen
  workload size and stretch.
* ``spanner`` — build a spanner of a registered workload with any registered
  builder (``--builder``, default greedy) and print its statistics.
* ``bench-oracles`` — run the strategy matrix (exact distance oracles plus
  the ``approx-greedy`` / ``approx-greedy-scratch`` cluster-engine rows) on
  an ad-hoc workload (uniform / clustered / grid Euclidean or an
  Erdős–Rényi graph, streamed through the lazy metric pipeline so n in the
  tens of thousands works without Θ(n²) memory) or on named preset rows
  (``--workloads``), print the comparison table with per-strategy
  tracemalloc peak memory and merge the measurements into a
  ``BENCH_oracles.json`` perf trajectory (see docs/PERFORMANCE.md).
* ``bench-overlays`` — drive broadcast / routing / synchronizer over one
  overlay per registry builder on the indexed distributed engine, print the
  per-builder table and merge the rows (wall clock plus the deterministic
  ``overlay_*`` operation counts) into a ``BENCH_overlays.json`` trajectory
  gated by ``scripts/check_bench_regression.py``.
* ``bench-verify`` — run exact edge verification and the exact stretch
  profile over a registry-built spanner once per engine mode (the indexed
  batch engine vs the seed per-pair reference), optionally sharded across
  worker processes (``--workers``), print the per-mode table with the
  bit-identical cross-check verdicts and merge the deterministic
  ``verify_settles`` / ``profile_settles`` counters into a
  ``BENCH_verify.json`` trajectory gated by the same regression script.
* ``bench-faults`` — sample a seeded fault plan over a greedy-spanner
  overlay, run the hardened (ack/timeout/retry) flood and echo once per
  engine mode, self-heal the spanner around the failed edges (cross-checked
  bit-identical against a from-scratch rebuild), route demands with detour
  forwarding, and merge the delivery/retry/repair counters into a
  ``BENCH_faults.json`` trajectory gated by the same regression script
  (see docs/RESILIENCE.md).
* ``bench-build`` — build the same greedy spanner once per construction
  strategy (the per-edge bounded-ball list path, the cached serial path,
  and the CSR band-parallel path with 1 and with ``--workers`` worker
  processes), check the edge sets byte-identical (``builds_match``) and
  merge the wall-clock plus deterministic ``build_*`` counters into a
  ``BENCH_build.json`` trajectory whose ``gate_build_speedup`` rows the
  regression script holds to ``--min-build-speedup``.
* ``service submit|status|run-workers|cache`` — the crash-safe job service
  (:mod:`repro.service`): submit a build request to the durable queue,
  inspect job records (``status <job-id>`` exits nonzero with the stored
  traceback for failed/quarantined jobs), drain the queue with supervised
  workers, and audit the content-addressed artifact cache (``cache
  --verify`` exits nonzero with the checksum digests on a corrupt
  artifact).  See docs/SERVICE.md.
* ``bench-service`` — run the service chaos bench (cold build with optional
  injected worker death, bit-flip corruption → quarantine + rebuild, warm
  resubmit, lease-expiry reclaim) and merge the recovery counters into a
  ``BENCH_service.json`` trajectory gated by the same regression script.

The ``bench-*`` subcommands share one option group
(:func:`_add_bench_matrix_options`): ``--workloads`` preset selection,
``--output`` trajectory path, and — where the matrix can shard or trace —
``--workers`` / ``--no-memory``.

The CLI exists so the repository can be exercised without writing Python —
e.g. ``python -m repro.cli experiment E3``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.core.distance_oracle import ORACLE_FACTORIES
from repro.experiments import experiments as exp
from repro.experiments.harness import ExperimentResult
from repro.experiments.reporting import render_table
from repro.experiments.workloads import get_workload, list_workloads
from repro.spanners.registry import build_spanner, builder_names, list_builders

_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "E1": exp.experiment_figure1,
    "E2": exp.experiment_lemma3,
    "E3": exp.experiment_general_graphs,
    "E4": exp.experiment_doubling_metrics,
    "E5": exp.experiment_approximate_greedy,
    "E6": exp.experiment_comparison,
    "E7": exp.experiment_broadcast,
    "E8": exp.experiment_degree,
    "E9": exp.experiment_routing,
    "E10": exp.experiment_oracle_matrix,
    "E11": exp.experiment_overlay_matrix,
    "E12": exp.experiment_verify_matrix,
    "E13": exp.experiment_fault_matrix,
    "E14": exp.experiment_build_matrix,
    "E15": exp.experiment_service_matrix,
}

_QUICK_ARGUMENTS: dict[str, dict[str, object]] = {
    "E1": {"epsilons": (0.1,)},
    "E2": {"sizes": (20,), "stretches": (2.0,)},
    "E3": {"sizes": (50,), "ks": (2,)},
    "E4": {"sizes": (40,), "epsilons": (0.5,)},
    "E5": {"sizes": (40,)},
    "E6": {"n": 60},
    "E7": {"n": 60},
    "E8": {"star_sizes": (10, 20), "euclidean_sizes": (40,)},
    "E9": {"n": 50, "demand_count": 40},
    "E10": {"n": 60},
    "E11": {"n": 60},
    "E12": {"n": 60},
    "E13": {"n": 60},
    "E14": {"n": 60, "workers": 2},
    "E15": {"n": 60},
}


def _command_list_workloads(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "kind": spec.kind,
            "description": spec.description,
        }
        for spec in list_workloads(kind=args.kind)
    ]
    print(render_table(rows, title="Registered workloads"))
    return 0


def _command_figure1(args: argparse.Namespace) -> int:
    result = exp.experiment_figure1(epsilons=(args.epsilon,), stretch=args.stretch)
    print(result.render())
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    experiment_id = args.id.upper()
    if experiment_id not in _EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; valid ids: {', '.join(sorted(_EXPERIMENTS))}")
        return 2
    function = _EXPERIMENTS[experiment_id]
    kwargs = _QUICK_ARGUMENTS.get(experiment_id, {}) if args.quick else {}
    result = function(**kwargs)
    print(result.render())
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    result = exp.experiment_comparison(
        n=args.n, stretch=args.stretch, clustered=args.clustered
    )
    print(result.render())
    return 0


def _command_list_builders(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": builder.name,
            "domain": builder.domain,
            "description": builder.description,
        }
        for builder in list_builders()
    ]
    print(render_table(rows, title="Registered spanner builders"))
    return 0


def _command_spanner(args: argparse.Namespace) -> int:
    from repro.errors import UnsupportedWorkloadError

    spec = get_workload(args.workload)
    instance = spec.build()
    params: dict[str, object] = {}
    if args.builder == "greedy":
        params["oracle"] = args.oracle
    try:
        spanner = build_spanner(args.builder, instance, args.stretch, **params)
    except UnsupportedWorkloadError as error:
        print(str(error))
        return 2
    stats = spanner.statistics(measure_stretch=args.measure_stretch)
    print(render_table(
        [stats.as_row()],
        title=f"{args.builder} {args.stretch}-spanner of {spec.name}",
    ))
    return 0


def _command_bench_oracles(args: argparse.Namespace) -> int:
    from repro.experiments.oracle_bench import (
        BENCH_PRESETS,
        clustered_workload,
        euclidean_workload,
        graph_workload,
        grid_workload,
        merge_run_into_file,
        render_rows,
        run_oracle_matrix,
        valid_strategy_names,
        workload_key,
    )

    valid_names = valid_strategy_names()
    strategies: Optional[tuple[str, ...]] = None
    if args.strategies is not None:
        strategies = tuple(name.strip() for name in args.strategies.split(",") if name.strip())
        unknown = [name for name in strategies if name not in valid_names]
        if not strategies or unknown:
            print(
                f"unknown oracle strategies: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(sorted(valid_names))}"
            )
            return 2

    # Assemble the (workload, strategies) rows to run: either named preset
    # rows (--workloads, so one baseline row can be regenerated without
    # rerunning the whole matrix) or one ad-hoc workload from the flags.
    rows: list[tuple[dict[str, object], tuple[str, ...]]] = []
    if args.workloads:
        requested = [key.strip() for key in args.workloads.split(",") if key.strip()]
        if requested == ["all"]:
            requested = list(BENCH_PRESETS)
        unknown_keys = [key for key in requested if key not in BENCH_PRESETS]
        if not requested or unknown_keys:
            print(
                f"unknown bench workloads: {', '.join(unknown_keys) or '(none given)'}; "
                "valid keys (or 'all'):"
            )
            for key in BENCH_PRESETS:
                print(f"  {key}")
            return 2
        for key in requested:
            workload, default_strategies = BENCH_PRESETS[key]
            rows.append((workload, strategies or default_strategies))
    else:
        if args.kind == "euclidean":
            workload = euclidean_workload(
                n=args.n, dim=args.dim, seed=args.seed, stretch=args.stretch
            )
        elif args.kind == "clustered":
            workload = clustered_workload(
                n=args.n, dim=args.dim, clusters=args.clusters,
                seed=args.seed, stretch=args.stretch,
            )
        elif args.kind == "grid":
            workload = grid_workload(side=args.side, dim=args.dim, stretch=args.stretch)
        else:
            workload = graph_workload(n=args.n, p=args.p, seed=args.seed, stretch=args.stretch)
        rows.append((workload, strategies or ("bounded", "bidirectional", "cached")))

    all_consistent = True
    for workload, row_strategies in rows:
        try:
            run = run_oracle_matrix(
                workload, strategies=row_strategies, measure_memory=not args.no_memory
            )
        except ValueError as error:
            # e.g. an approx-greedy strategy asked to run on a graph workload.
            print(f"cannot bench {workload_key(workload)}: {error}")
            return 2
        merge_run_into_file(args.output, run)
        print(render_table(render_rows(run), title=f"oracle matrix: {workload_key(workload)}"))
        for name, speedup in sorted(run.get("speedup_vs_bounded", {}).items()):
            print(f"speedup vs bounded [{name}]: {speedup:.2f}x")
        for name, record in run["strategies"].items():
            if "peak_memory_bytes" in record:
                print(f"peak memory [{name}]: {record['peak_memory_bytes'] / 1_048_576:.1f} MiB")
        print(f"identical edge sets: {run['identical_edge_sets']}")
        if "approx_identical_edge_sets" in run:
            print(f"approx engines identical: {run['approx_identical_edge_sets']}")
            all_consistent = all_consistent and run["approx_identical_edge_sets"]
        all_consistent = all_consistent and run["identical_edge_sets"]
    print(f"trajectory written to {args.output}")
    return 0 if all_consistent else 1


def _command_bench_overlays(args: argparse.Namespace) -> int:
    from repro.errors import UnsupportedWorkloadError
    from repro.experiments.oracle_bench import (
        clustered_workload,
        euclidean_workload,
        graph_workload,
        grid_workload,
    )
    from repro.experiments.overlay_bench import (
        DEFAULT_GRAPH_BUILDERS,
        DEFAULT_METRIC_BUILDERS,
        OVERLAY_PRESETS,
        geometric_workload,
        merge_run_into_file,
        render_rows,
        run_overlay_bench,
        workload_key,
    )

    valid_names = set(builder_names())
    builders = None
    if args.builders is not None:
        requested = tuple(name.strip() for name in args.builders.split(",") if name.strip())
        unknown = [name for name in requested if name not in valid_names]
        if not requested or unknown:
            print(
                f"unknown spanner builders: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(sorted(valid_names))}"
            )
            return 2
        builders = requested

    # Assemble (workload, builders) rows: named preset rows (--workloads) or
    # one ad-hoc workload from the flags — the same shape as bench-oracles.
    rows: list[tuple[dict[str, object], object]] = []
    if args.workloads:
        requested_keys = [key.strip() for key in args.workloads.split(",") if key.strip()]
        if requested_keys == ["all"]:
            requested_keys = list(OVERLAY_PRESETS)
        unknown_keys = [key for key in requested_keys if key not in OVERLAY_PRESETS]
        if not requested_keys or unknown_keys:
            print(
                f"unknown overlay workloads: {', '.join(unknown_keys) or '(none given)'}; "
                "valid keys (or 'all'):"
            )
            for key in OVERLAY_PRESETS:
                print(f"  {key}")
            return 2
        for key in requested_keys:
            workload, default_builders = OVERLAY_PRESETS[key]
            rows.append((workload, builders or default_builders))
    else:
        if args.kind == "euclidean":
            workload = euclidean_workload(
                n=args.n, dim=args.dim, seed=args.seed, stretch=args.stretch
            )
        elif args.kind == "clustered":
            workload = clustered_workload(
                n=args.n, dim=args.dim, clusters=args.clusters,
                seed=args.seed, stretch=args.stretch,
            )
        elif args.kind == "grid":
            workload = grid_workload(side=args.side, dim=args.dim, stretch=args.stretch)
        elif args.kind == "graph":
            workload = graph_workload(n=args.n, p=args.p, seed=args.seed, stretch=args.stretch)
        else:
            workload = geometric_workload(
                n=args.n, radius=args.radius, seed=args.seed, stretch=args.stretch
            )
        if builders is None:
            builders = (
                DEFAULT_GRAPH_BUILDERS
                if args.kind in ("graph", "geometric")
                else DEFAULT_METRIC_BUILDERS
            )
        rows.append((workload, builders))

    for workload, row_builders in rows:
        try:
            run = run_overlay_bench(
                workload,
                row_builders,
                demand_count=args.demands,
                pulses=args.pulses,
            )
        except UnsupportedWorkloadError as error:
            print(f"cannot bench {workload_key(workload)}: {error}")
            return 2
        merge_run_into_file(args.output, run)
        print(render_table(render_rows(run), title=f"overlay matrix: {workload_key(workload)}"))
        print(f"pulse delay method: {run['diameter_method']}")
    print(f"trajectory written to {args.output}")
    return 0


def _command_bench_verify(args: argparse.Namespace) -> int:
    from repro.errors import UnsupportedWorkloadError
    from repro.experiments.oracle_bench import (
        clustered_workload,
        euclidean_workload,
        graph_workload,
        grid_workload,
    )
    from repro.experiments.overlay_bench import geometric_workload
    from repro.experiments.verify_bench import (
        DEFAULT_MODES,
        VERIFY_PRESETS,
        merge_run_into_file,
        render_rows,
        run_verify_bench,
        verify_workload,
        workload_key,
    )

    modes: Optional[tuple[str, ...]] = None
    if args.modes is not None:
        modes = tuple(name.strip() for name in args.modes.split(",") if name.strip())
        unknown = [name for name in modes if name not in DEFAULT_MODES]
        if not modes or unknown:
            print(
                f"unknown verification modes: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(DEFAULT_MODES)}"
            )
            return 2

    # Assemble (workload, modes, profile_sources) rows: named preset rows
    # (--workloads) or one ad-hoc workload from the flags — the same shape
    # as bench-oracles / bench-overlays.
    rows: list[tuple[dict[str, object], tuple[str, ...], Optional[int]]] = []
    if args.workloads:
        requested = [key.strip() for key in args.workloads.split(",") if key.strip()]
        if requested == ["all"]:
            requested = list(VERIFY_PRESETS)
        unknown_keys = [key for key in requested if key not in VERIFY_PRESETS]
        if not requested or unknown_keys:
            print(
                f"unknown verify workloads: {', '.join(unknown_keys) or '(none given)'}; "
                "valid keys (or 'all'):"
            )
            for key in VERIFY_PRESETS:
                print(f"  {key}")
            return 2
        for key in requested:
            workload, default_modes, default_sources = VERIFY_PRESETS[key]
            rows.append((
                workload,
                modes or default_modes,
                args.profile_sources if args.profile_sources is not None else default_sources,
            ))
    else:
        if args.kind == "euclidean":
            base = euclidean_workload(n=args.n, dim=args.dim, seed=args.seed, stretch=args.stretch)
        elif args.kind == "clustered":
            base = clustered_workload(
                n=args.n, dim=args.dim, clusters=args.clusters,
                seed=args.seed, stretch=args.stretch,
            )
        elif args.kind == "grid":
            base = grid_workload(side=args.side, dim=args.dim, stretch=args.stretch)
        elif args.kind == "graph":
            base = graph_workload(n=args.n, p=args.p, seed=args.seed, stretch=args.stretch)
        else:
            base = geometric_workload(
                n=args.n, radius=args.radius, seed=args.seed, stretch=args.stretch
            )
        rows.append((
            verify_workload(base, args.builder),
            modes or DEFAULT_MODES,
            args.profile_sources,
        ))

    all_consistent = True
    for workload, row_modes, profile_sources in rows:
        try:
            run = run_verify_bench(
                workload,
                modes=row_modes,
                workers=args.workers,
                profile_sources=profile_sources,
            )
        except UnsupportedWorkloadError as error:
            print(f"cannot bench {workload_key(workload)}: {error}")
            return 2
        merge_run_into_file(args.output, run)
        print(render_table(render_rows(run), title=f"verify matrix: {workload_key(workload)}"))
        if "speedup_vs_reference" in run:
            print(f"speedup vs reference: {run['speedup_vs_reference']:.2f}x")
        for flag in ("verdicts_match", "profiles_match"):
            if flag in run:
                print(f"{flag}: {run[flag]}")
                all_consistent = all_consistent and bool(run[flag])
    print(f"trajectory written to {args.output}")
    return 0 if all_consistent else 1


def _command_bench_faults(args: argparse.Namespace) -> int:
    from repro.experiments.fault_bench import (
        DEFAULT_MODES,
        FAULT_PRESETS,
        fault_workload,
        merge_run_into_file,
        render_rows,
        run_fault_bench,
        run_flags,
        workload_key,
    )
    from repro.experiments.overlay_bench import geometric_workload

    modes: Optional[tuple[str, ...]] = None
    if args.modes is not None:
        modes = tuple(name.strip() for name in args.modes.split(",") if name.strip())
        unknown = [name for name in modes if name not in DEFAULT_MODES]
        if not modes or unknown:
            print(
                f"unknown engine modes: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(DEFAULT_MODES)}"
            )
            return 2

    # Assemble (workload, modes) rows: named preset rows (--workloads) or one
    # ad-hoc geometric workload from the flags — the same shape as the other
    # bench commands.
    rows: list[tuple[dict[str, object], tuple[str, ...]]] = []
    if args.workloads:
        requested = [key.strip() for key in args.workloads.split(",") if key.strip()]
        if requested == ["all"]:
            requested = list(FAULT_PRESETS)
        unknown_keys = [key for key in requested if key not in FAULT_PRESETS]
        if not requested or unknown_keys:
            print(
                f"unknown fault workloads: {', '.join(unknown_keys) or '(none given)'}; "
                "valid keys (or 'all'):"
            )
            for key in FAULT_PRESETS:
                print(f"  {key}")
            return 2
        for key in requested:
            workload, default_modes = FAULT_PRESETS[key]
            rows.append((workload, modes or default_modes))
    else:
        workload = fault_workload(
            geometric_workload(
                n=args.n, radius=args.radius, seed=args.seed, stretch=args.stretch
            ),
            fault_seed=args.fault_seed,
            edge_failure_rate=args.edge_failure_rate,
            failure_band=args.failure_band,
            node_crash_rate=args.node_crash_rate,
            drop_rate=args.drop_rate,
            delay_jitter=args.delay_jitter,
            repair_oracle=args.repair_oracle,
        )
        rows.append((workload, modes or DEFAULT_MODES))

    all_ok = True
    for workload, row_modes in rows:
        run = run_fault_bench(workload, modes=row_modes, demand_count=args.demands)
        merge_run_into_file(args.output, run)
        print(render_table(render_rows(run), title=f"fault matrix: {workload_key(workload)}"))
        print(f"fault plan: {run['fault_plan']}")
        print(f"delivery_rate: {run['delivery_rate']:.3f}")
        if "repair_speedup" in run:
            print(f"repair vs rebuild: {run['repair_speedup']:.2f}x fewer settles")
        for name, value in sorted(run_flags(run).items()):
            print(f"{name}: {value}")
            all_ok = all_ok and bool(value)
    print(f"trajectory written to {args.output}")
    return 0 if all_ok else 1


def _command_bench_build(args: argparse.Namespace) -> int:
    from repro.experiments.build_bench import (
        BUILD_PRESETS,
        DEFAULT_STRATEGIES,
        bucketed_workload,
        euclidean_build_workload,
        merge_run_into_file,
        render_rows,
        run_build_bench,
        workload_key,
    )

    strategies: Optional[tuple[str, ...]] = None
    if args.strategies is not None:
        strategies = tuple(name.strip() for name in args.strategies.split(",") if name.strip())
        unknown = [name for name in strategies if name not in DEFAULT_STRATEGIES]
        if not strategies or unknown:
            print(
                f"unknown build strategies: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(DEFAULT_STRATEGIES)}"
            )
            return 2

    # Assemble (workload, strategies, gated) rows: named preset rows
    # (--workloads) or one ad-hoc workload from the flags — the same shape
    # as the other bench commands.
    rows: list[tuple[dict[str, object], tuple[str, ...], bool]] = []
    if args.workloads:
        requested = [key.strip() for key in args.workloads.split(",") if key.strip()]
        if requested == ["all"]:
            requested = list(BUILD_PRESETS)
        unknown_keys = [key for key in requested if key not in BUILD_PRESETS]
        if not requested or unknown_keys:
            print(
                f"unknown build workloads: {', '.join(unknown_keys) or '(none given)'}; "
                "valid keys (or 'all'):"
            )
            for key in BUILD_PRESETS:
                print(f"  {key}")
            return 2
        for key in requested:
            workload, default_strategies, gated = BUILD_PRESETS[key]
            rows.append((workload, strategies or default_strategies, gated))
    else:
        if args.kind == "euclidean":
            workload = euclidean_build_workload(
                n=args.n, dim=args.dim, seed=args.seed, stretch=args.stretch
            )
        else:
            workload = bucketed_workload(
                n=args.n, degree=args.degree, seed=args.seed, stretch=args.stretch
            )
        rows.append((workload, strategies or DEFAULT_STRATEGIES, False))

    all_match = True
    for workload, row_strategies, gated in rows:
        run = run_build_bench(
            workload,
            strategies=row_strategies,
            workers=args.workers,
            gate_build_speedup=gated,
        )
        merge_run_into_file(args.output, run)
        print(render_table(render_rows(run), title=f"build matrix: {workload_key(workload)}"))
        for label, field in (
            ("speedup vs per-edge list path", "build_speedup"),
            ("speedup vs cached serial path", "cached_speedup"),
            ("1-worker vs fan-out wall clock", "workers_speedup"),
        ):
            if field in run:
                print(f"{label}: {run[field]:.2f}x")
        print(f"cpu_count: {int(run['cpu_count'])}  fan_workers: {int(run['fan_workers'])}")
        if "builds_match" in run:
            print(f"builds_match: {run['builds_match']}")
            all_match = all_match and bool(run["builds_match"])
    print(f"trajectory written to {args.output}")
    return 0 if all_match else 1


def _command_bench_queries(args: argparse.Namespace) -> int:
    from repro.experiments.query_bench import (
        DEFAULT_STRATEGIES,
        QUERY_PRESETS,
        merge_run_into_file,
        query_workload,
        render_rows,
        run_query_bench,
        workload_key,
    )

    strategies: Optional[tuple[str, ...]] = None
    if args.strategies is not None:
        strategies = tuple(name.strip() for name in args.strategies.split(",") if name.strip())
        unknown = [name for name in strategies if name not in DEFAULT_STRATEGIES]
        if not strategies or unknown:
            print(
                f"unknown query strategies: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(DEFAULT_STRATEGIES)}"
            )
            return 2

    rows: list[tuple[dict[str, object], bool]] = []
    if args.workloads:
        requested = [key.strip() for key in args.workloads.split(",") if key.strip()]
        if requested == ["all"]:
            requested = list(QUERY_PRESETS)
        unknown_keys = [key for key in requested if key not in QUERY_PRESETS]
        if not requested or unknown_keys:
            print(
                f"unknown query workloads: {', '.join(unknown_keys) or '(none given)'}; "
                "valid keys (or 'all'):"
            )
            for key in QUERY_PRESETS:
                print(f"  {key}")
            return 2
        rows = [QUERY_PRESETS[key] for key in requested]
    else:
        workload = query_workload(
            n=args.n,
            degree=args.degree,
            seed=args.seed,
            queries=args.queries,
            sources=args.sources,
            query_seed=args.query_seed,
        )
        rows.append((workload, False))

    all_match = True
    for workload, gated in rows:
        run = run_query_bench(
            workload,
            strategies=strategies or DEFAULT_STRATEGIES,
            gate_query_speedup=gated,
        )
        merge_run_into_file(args.output, run)
        print(render_table(render_rows(run), title=f"query matrix: {workload_key(workload)}"))
        if "query_speedup" in run:
            print(f"batched engine vs per-query heapq: {run['query_speedup']:.2f}x")
        if "queries_match" in run:
            print(f"queries_match: {run['queries_match']}")
            all_match = all_match and bool(run["queries_match"])
    print(f"trajectory written to {args.output}")
    return 0 if all_match else 1


def _command_profile(args: argparse.Namespace) -> int:
    """cProfile a preset workload and print/save the top-N cumulative table.

    The same table CI uploads as an artifact next to the gated bench rows, so
    a regression report always ships with the profile that explains it.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    if args.workload == "build":
        from repro.experiments.build_bench import bucketed_workload, run_build_bench

        workload = bucketed_workload(n=args.n, degree=args.degree, seed=args.seed)
        profiler.enable()
        run_build_bench(workload, strategies=("csr-parallel-w1",), workers=1)
        profiler.disable()
    else:
        from repro.experiments.query_bench import query_workload, run_query_bench

        workload = query_workload(
            n=args.n, degree=args.degree, seed=args.seed,
            queries=args.queries, sources=args.sources,
        )
        profiler.enable()
        run_query_bench(workload)
        profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(args.sort).print_stats(args.top)
    report = buffer.getvalue()
    print(report)
    if args.output:
        Path(args.output).write_text(report)
        print(f"profile written to {args.output}")
    return 0


def _command_bench_service(args: argparse.Namespace) -> int:
    from repro.experiments.overlay_bench import geometric_workload
    from repro.experiments.service_bench import (
        SERVICE_PRESETS,
        merge_run_into_file,
        render_rows,
        run_flags,
        run_service_bench,
        service_workload,
        workload_key,
    )

    rows: list[dict[str, object]] = []
    if args.workloads:
        requested = [key.strip() for key in args.workloads.split(",") if key.strip()]
        if requested == ["all"]:
            requested = list(SERVICE_PRESETS)
        unknown_keys = [key for key in requested if key not in SERVICE_PRESETS]
        if not requested or unknown_keys:
            print(
                f"unknown service workloads: {', '.join(unknown_keys) or '(none given)'}; "
                "valid keys (or 'all'):"
            )
            for key in SERVICE_PRESETS:
                print(f"  {key}")
            return 2
        rows = [SERVICE_PRESETS[key] for key in requested]
    else:
        rows.append(
            service_workload(
                geometric_workload(
                    n=args.n, radius=args.radius, seed=args.seed, stretch=args.stretch
                ),
                kill_band=None if args.kill_band < 0 else args.kill_band,
                build_workers=args.workers if args.workers else 2,
            )
        )

    all_ok = True
    for workload in rows:
        run = run_service_bench(workload)
        merge_run_into_file(args.output, run)
        print(render_table(render_rows(run), title=f"service matrix: {workload_key(workload)}"))
        print(f"served by tier: {run['tier']} (degraded: {run['degraded']})")
        print(f"warm_serve_ratio: {run['warm_serve_ratio']:.4f}")
        for name, value in sorted(run_flags(run).items()):
            print(f"{name}: {value}")
            all_ok = all_ok and bool(value)
    print(f"trajectory written to {args.output}")
    return 0 if all_ok else 1


def _service_workload(args: argparse.Namespace) -> dict[str, object]:
    """The workload dictionary of one ``service submit`` invocation."""
    from repro.experiments.build_bench import bucketed_workload
    from repro.experiments.oracle_bench import (
        clustered_workload,
        euclidean_workload,
        graph_workload,
        grid_workload,
    )
    from repro.experiments.overlay_bench import geometric_workload

    if args.kind == "euclidean":
        return euclidean_workload(n=args.n, dim=args.dim, seed=args.seed, stretch=args.stretch)
    if args.kind == "clustered":
        return clustered_workload(
            n=args.n, dim=args.dim, clusters=args.clusters, seed=args.seed, stretch=args.stretch
        )
    if args.kind == "grid":
        return grid_workload(side=args.side, dim=args.dim, stretch=args.stretch)
    if args.kind == "graph":
        return graph_workload(n=args.n, p=args.p, seed=args.seed, stretch=args.stretch)
    if args.kind == "bucketed":
        return bucketed_workload(n=args.n, degree=args.degree, seed=args.seed, stretch=args.stretch)
    return geometric_workload(n=args.n, radius=args.radius, seed=args.seed, stretch=args.stretch)


def _command_service_submit(args: argparse.Namespace) -> int:
    from repro.service.degrade import DEFAULT_CHAIN
    from repro.service.queue import JobQueue

    chain = list(DEFAULT_CHAIN)
    if args.chain is not None:
        chain = [name.strip() for name in args.chain.split(",") if name.strip()]
        valid_names = set(builder_names())
        unknown = [name for name in chain if name not in valid_names]
        if not chain or unknown:
            print(
                f"unknown chain builders: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(sorted(valid_names))}"
            )
            return 2
    spec: dict[str, object] = {
        "workload": _service_workload(args),
        "stretch": args.stretch,
        "chain": chain,
    }
    if args.budget_seconds is not None:
        spec["budget_seconds"] = args.budget_seconds
    if args.measure_stretch:
        spec["measure_stretch"] = True
    queue = JobQueue(args.root)
    job = queue.submit(
        spec, max_attempts=args.max_attempts, lease_seconds=args.lease_seconds
    )
    print(f"submitted {job.job_id} ({job.state})")
    return 0


def _job_rows(jobs) -> list[dict[str, object]]:
    rows = []
    for job in jobs:
        rows.append({
            "job_id": job.job_id,
            "state": job.state,
            "attempts": f"{job.attempts}/{job.max_attempts}",
            "worker": job.worker_id or "-",
            "kind": str(job.spec.get("workload", {}).get("kind", "?")),
            "tier": str((job.result or {}).get("tier", "-")),
            "cache_hit": str((job.result or {}).get("cache_hit", "-")),
        })
    return rows


def _command_service_status(args: argparse.Namespace) -> int:
    from repro.errors import CorruptJobRecordError, JobNotFoundError
    from repro.service.queue import JobQueue

    queue = JobQueue(args.root)
    if args.job_id is None:
        jobs = queue.list_jobs(state=args.state)
        print(render_table(_job_rows(jobs), title=f"service jobs under {args.root}"))
        bad = [job for job in jobs if job.state in ("failed", "quarantined")]
        for job in bad:
            print(f"\n{job.job_id} is {job.state}; last error:\n{job.error or '(no error recorded)'}")
        return 1 if bad else 0
    try:
        job = queue.get(args.job_id)
    except (JobNotFoundError, CorruptJobRecordError) as error:
        print(str(error))
        return 2
    print(render_table(_job_rows([job]), title=f"job {job.job_id}"))
    for entry in job.history:
        print(f"  {entry}")
    if job.state in ("failed", "quarantined"):
        # Error surfacing is the contract: the stored traceback IS the
        # diagnosis, and a nonzero exit makes scripts notice.
        print(f"\n{job.job_id} is {job.state}; stored error:\n{job.error or '(no error recorded)'}")
        return 1
    if job.result is not None:
        print(f"result: {job.result}")
    return 0


def _command_service_run_workers(args: argparse.Namespace) -> int:
    from repro.service.cache import ArtifactCache
    from repro.service.queue import JobQueue
    from repro.service.workers import ServiceWorker

    queue = JobQueue(args.root)
    cache = ArtifactCache(args.root / "cache")
    workers = [
        ServiceWorker(queue, cache, f"worker-{index}", verify=not args.no_verify)
        for index in range(max(1, args.workers))
    ]
    # Round-robin so every worker identity takes claims from the shared
    # queue — the lease law, not worker count, is what guards exclusivity.
    processed = 0
    while args.max_jobs is None or processed < args.max_jobs:
        progressed = False
        for worker in workers:
            if args.max_jobs is not None and processed >= args.max_jobs:
                break
            if worker.run_once() is not None:
                progressed = True
                processed += 1
        if not progressed:
            break
    totals: dict[str, int] = {}
    for worker in workers:
        for name, value in worker.counters.items():
            totals[name] = totals.get(name, 0) + value
    for name in sorted(totals):
        print(f"{name}: {totals[name]}")
    for name, value in sorted(queue.counters.items()):
        print(f"queue_{name}: {value}")
    for name, value in sorted(cache.counters.items()):
        print(f"cache_{name}: {value}")
    failed = queue.list_jobs(state="failed") + queue.list_jobs(state="quarantined")
    for job in failed:
        print(f"\n{job.job_id} is {job.state}; last error:\n{job.error or '(no error recorded)'}")
    return 1 if failed else 0


def _command_service_cache(args: argparse.Namespace) -> int:
    from repro.service.cache import ArtifactCache

    cache = ArtifactCache(args.root / "cache")
    keys = cache.keys()
    print(f"artifacts: {len(keys)}")
    for key in keys:
        print(f"  {key}")
    quarantined = cache.quarantined()
    if quarantined:
        print(f"quarantined: {len(quarantined)}")
        for name in quarantined:
            print(f"  {name}")
    if not args.verify:
        return 0
    report = cache.verify_all()
    corrupt = {key: entry for key, entry in report.items() if not entry["ok"]}
    for key, entry in corrupt.items():
        print(
            f"CORRUPT {key}: manifest sha256 {entry['expected']} != payload "
            f"sha256 {entry['actual']} (quarantined)"
        )
    print(f"verified {len(report)} artifact(s); corrupt: {len(corrupt)}")
    return 1 if corrupt else 0


def _add_bench_matrix_options(
    parser: argparse.ArgumentParser,
    *,
    bench: str,
    output: str,
    workers: bool = False,
    memory: bool = False,
) -> None:
    """The option group every ``bench-*`` subcommand shares.

    Keeping the flag names, defaults and help text in one place stops the
    subcommands drifting apart (``--workers`` used to exist on bench-verify
    only, with hand-copied ``--workloads`` / ``--output`` help everywhere).
    ``workers`` / ``memory`` are opt-in so commands without a sharded or
    memory-traced path don't grow dead flags.
    """
    parser.add_argument(
        "--workloads",
        default=None,
        help=(
            f"comma-separated {bench} preset keys (or 'all') to (re)run "
            "named matrix rows instead of an ad-hoc workload; see the keys "
            f"in benchmarks/{output}"
        ),
    )
    parser.add_argument(
        "--output", default=output, help="JSON trajectory file to merge into"
    )
    if workers:
        parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help=(
                "worker processes for the sharded/parallel path (default 1 = "
                "inline; -1 = all CPUs; deterministic counters are identical "
                "for any worker count)"
            ),
        )
    if memory:
        parser.add_argument(
            "--no-memory",
            action="store_true",
            help="skip tracemalloc peak-memory tracking (tracing ~doubles wall clock)",
        )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Greedy Spanner is Existentially Optimal' (PODC 2016)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list-workloads", help="print the workload registry")
    list_parser.add_argument("--kind", choices=["graph", "metric"], default=None)
    list_parser.set_defaults(handler=_command_list_workloads)

    builders_parser = subparsers.add_parser(
        "list-builders", help="print the spanner-builder registry"
    )
    builders_parser.set_defaults(handler=_command_list_builders)

    figure1_parser = subparsers.add_parser("figure1", help="reproduce the paper's Figure 1")
    figure1_parser.add_argument("--epsilon", type=float, default=0.1)
    figure1_parser.add_argument("--stretch", type=float, default=3.0)
    figure1_parser.set_defaults(handler=_command_figure1)

    experiment_parser = subparsers.add_parser("experiment", help="run one experiment (E1-E14)")
    experiment_parser.add_argument("id", help="experiment id, e.g. E3")
    experiment_parser.add_argument("--quick", action="store_true", help="use reduced workloads")
    experiment_parser.set_defaults(handler=_command_experiment)

    compare_parser = subparsers.add_parser("compare", help="Euclidean construction comparison")
    compare_parser.add_argument("--n", type=int, default=120)
    compare_parser.add_argument("--stretch", type=float, default=1.5)
    compare_parser.add_argument("--clustered", action="store_true")
    compare_parser.set_defaults(handler=_command_compare)

    spanner_parser = subparsers.add_parser("spanner", help="spanner of a registered workload")
    spanner_parser.add_argument("workload", help="workload name (see list-workloads)")
    spanner_parser.add_argument(
        "--builder",
        choices=builder_names(),
        default="greedy",
        help="spanner construction (see list-builders)",
    )
    spanner_parser.add_argument("--stretch", type=float, default=2.0)
    spanner_parser.add_argument("--measure-stretch", action="store_true")
    spanner_parser.add_argument(
        "--oracle",
        choices=sorted(ORACLE_FACTORIES),
        default="cached",
        help="distance-oracle strategy for the greedy inner query (greedy builder only)",
    )
    spanner_parser.set_defaults(handler=_command_spanner)

    bench_parser = subparsers.add_parser(
        "bench-oracles",
        help="benchmark the distance-oracle strategies and emit BENCH_oracles.json",
    )
    bench_parser.add_argument(
        "--kind",
        choices=["euclidean", "clustered", "grid", "graph"],
        default="euclidean",
        help=(
            "ad-hoc workload family: uniform / clustered-Gaussian / grid "
            "Euclidean points or an Erdős–Rényi graph"
        ),
    )
    bench_parser.add_argument("--n", type=int, default=400, help="number of points / vertices")
    bench_parser.add_argument(
        "--dim", type=int, default=2, help="dimension (euclidean/clustered/grid)"
    )
    bench_parser.add_argument(
        "--clusters", type=int, default=50, help="number of Gaussian clusters (clustered only)"
    )
    bench_parser.add_argument(
        "--side", type=int, default=100, help="grid side length (grid only; n = side**dim)"
    )
    bench_parser.add_argument(
        "--p", type=float, default=0.15, help="edge probability (graph only)"
    )
    bench_parser.add_argument("--seed", type=int, default=7)
    bench_parser.add_argument("--stretch", type=float, default=2.0)
    bench_parser.add_argument(
        "--strategies",
        default=None,
        help=(
            "comma-separated strategy names to bench (oracle names plus "
            "approx-greedy / approx-greedy-scratch); defaults to "
            "bounded,bidirectional,cached for ad-hoc workloads and to each "
            "row's recorded strategies with --workloads"
        ),
    )
    _add_bench_matrix_options(
        bench_parser, bench="oracle", output="BENCH_oracles.json", memory=True
    )
    bench_parser.set_defaults(handler=_command_bench_oracles)

    overlay_parser = subparsers.add_parser(
        "bench-overlays",
        help=(
            "benchmark broadcast/routing/synchronizer over registry-built "
            "overlays and emit BENCH_overlays.json"
        ),
    )
    overlay_parser.add_argument(
        "--kind",
        choices=["geometric", "euclidean", "clustered", "grid", "graph"],
        default="geometric",
        help=(
            "ad-hoc workload family: random geometric (wireless) graph, "
            "uniform / clustered-Gaussian / grid Euclidean points or an "
            "Erdős–Rényi graph"
        ),
    )
    overlay_parser.add_argument("--n", type=int, default=300, help="number of points / vertices")
    overlay_parser.add_argument(
        "--radius", type=float, default=0.12, help="connection radius (geometric only)"
    )
    overlay_parser.add_argument(
        "--dim", type=int, default=2, help="dimension (euclidean/clustered/grid)"
    )
    overlay_parser.add_argument(
        "--clusters", type=int, default=50, help="number of Gaussian clusters (clustered only)"
    )
    overlay_parser.add_argument(
        "--side", type=int, default=100, help="grid side length (grid only; n = side**dim)"
    )
    overlay_parser.add_argument(
        "--p", type=float, default=0.15, help="edge probability (graph only)"
    )
    overlay_parser.add_argument("--seed", type=int, default=7)
    overlay_parser.add_argument("--stretch", type=float, default=1.5)
    overlay_parser.add_argument(
        "--demands", type=int, default=32, help="routing demand pairs per overlay"
    )
    overlay_parser.add_argument(
        "--pulses", type=int, default=10, help="synchronizer pulses to account"
    )
    overlay_parser.add_argument(
        "--builders",
        default=None,
        help=(
            "comma-separated registry builder names to bench (see "
            "list-builders); defaults to the workload kind's default set or "
            "each preset row's recorded builders"
        ),
    )
    _add_bench_matrix_options(
        overlay_parser, bench="overlay", output="BENCH_overlays.json"
    )
    overlay_parser.set_defaults(handler=_command_bench_overlays)

    verify_parser = subparsers.add_parser(
        "bench-verify",
        help=(
            "benchmark the batch verification engine (exact edge checks + "
            "stretch profile per mode) and emit BENCH_verify.json"
        ),
    )
    verify_parser.add_argument(
        "--kind",
        choices=["geometric", "euclidean", "clustered", "grid", "graph"],
        default="geometric",
        help=(
            "ad-hoc workload family: random geometric (wireless) graph, "
            "uniform / clustered-Gaussian / grid Euclidean points or an "
            "Erdős–Rényi graph"
        ),
    )
    verify_parser.add_argument("--n", type=int, default=300, help="number of points / vertices")
    verify_parser.add_argument(
        "--radius", type=float, default=0.12, help="connection radius (geometric only)"
    )
    verify_parser.add_argument(
        "--dim", type=int, default=2, help="dimension (euclidean/clustered/grid)"
    )
    verify_parser.add_argument(
        "--clusters", type=int, default=50, help="number of Gaussian clusters (clustered only)"
    )
    verify_parser.add_argument(
        "--side", type=int, default=100, help="grid side length (grid only; n = side**dim)"
    )
    verify_parser.add_argument(
        "--p", type=float, default=0.15, help="edge probability (graph only)"
    )
    verify_parser.add_argument("--seed", type=int, default=7)
    verify_parser.add_argument("--stretch", type=float, default=1.5)
    verify_parser.add_argument(
        "--builder",
        choices=builder_names(),
        default="greedy",
        help="registry builder whose spanner gets verified (see list-builders)",
    )
    verify_parser.add_argument(
        "--modes",
        default=None,
        help=(
            "comma-separated engine modes to bench (indexed, reference); "
            "defaults to both for ad-hoc workloads and to each preset row's "
            "recorded modes with --workloads"
        ),
    )
    verify_parser.add_argument(
        "--profile-sources",
        type=int,
        default=None,
        help=(
            "restrict the exact stretch profile to this many evenly-strided "
            "sources (default: all vertices, or each preset row's recorded "
            "shard with --workloads)"
        ),
    )
    _add_bench_matrix_options(
        verify_parser, bench="verify", output="BENCH_verify.json", workers=True
    )
    verify_parser.set_defaults(handler=_command_bench_verify)

    faults_parser = subparsers.add_parser(
        "bench-faults",
        help=(
            "benchmark the hardened flood/echo, self-healing repair and "
            "detour routing under a seeded fault plan and emit "
            "BENCH_faults.json"
        ),
    )
    faults_parser.add_argument(
        "--n", type=int, default=300, help="geometric workload size (ad-hoc rows)"
    )
    faults_parser.add_argument(
        "--radius", type=float, default=0.12, help="geometric connection radius"
    )
    faults_parser.add_argument("--seed", type=int, default=7, help="workload seed")
    faults_parser.add_argument("--stretch", type=float, default=1.5)
    faults_parser.add_argument(
        "--fault-seed", type=int, default=11, help="seed of the fault plan"
    )
    faults_parser.add_argument(
        "--edge-failure-rate",
        type=float,
        default=0.02,
        help="fraction of overlay edges that fail",
    )
    faults_parser.add_argument(
        "--failure-band",
        type=float,
        default=0.3,
        help=(
            "failures are drawn from this heaviest fraction of the "
            "weight-sorted overlay edges (1.0 = uniform)"
        ),
    )
    faults_parser.add_argument(
        "--node-crash-rate", type=float, default=0.02, help="fraction of nodes that crash"
    )
    faults_parser.add_argument(
        "--drop-rate", type=float, default=0.05, help="per-transmission loss probability"
    )
    faults_parser.add_argument(
        "--delay-jitter",
        type=float,
        default=0.25,
        help="extra per-message delay as a fraction of the edge weight",
    )
    faults_parser.add_argument(
        "--repair-oracle",
        choices=sorted(ORACLE_FACTORIES),
        default="cached",
        help="distance-oracle strategy of the repair replay and rebuild cross-check",
    )
    faults_parser.add_argument(
        "--demands", type=int, default=32, help="detour-routing demand pairs"
    )
    faults_parser.add_argument(
        "--modes",
        default=None,
        help=(
            "comma-separated engine modes to run (indexed, reference); "
            "defaults to both for ad-hoc workloads and to each preset row's "
            "recorded modes with --workloads"
        ),
    )
    _add_bench_matrix_options(
        faults_parser, bench="fault", output="BENCH_faults.json"
    )
    faults_parser.set_defaults(handler=_command_bench_faults)

    build_bench_parser = subparsers.add_parser(
        "bench-build",
        help=(
            "benchmark greedy construction strategies (per-edge list path, "
            "cached serial, CSR band-parallel) and emit BENCH_build.json"
        ),
    )
    build_bench_parser.add_argument(
        "--kind",
        choices=["bucketed", "euclidean"],
        default="bucketed",
        help=(
            "ad-hoc workload family: bucketed geometric graph (O(n + m) "
            "spatial-hash generator) or uniform Euclidean points (streamed "
            "complete graph)"
        ),
    )
    build_bench_parser.add_argument(
        "--n", type=int, default=20000, help="number of points / vertices"
    )
    build_bench_parser.add_argument(
        "--degree",
        type=float,
        default=96.0,
        help="target average degree of the bucketed geometric graph",
    )
    build_bench_parser.add_argument(
        "--dim", type=int, default=2, help="dimension (euclidean only)"
    )
    build_bench_parser.add_argument("--seed", type=int, default=3)
    build_bench_parser.add_argument("--stretch", type=float, default=2.0)
    build_bench_parser.add_argument(
        "--strategies",
        default=None,
        help=(
            "comma-separated build strategies to run (greedy-edge-list, "
            "greedy-serial, csr-parallel-w1, csr-parallel-wn); defaults to "
            "all four"
        ),
    )
    _add_bench_matrix_options(
        build_bench_parser, bench="build", output="BENCH_build.json", workers=True
    )
    build_bench_parser.set_defaults(handler=_command_bench_build)

    query_bench_parser = subparsers.add_parser(
        "bench-queries",
        help=(
            "benchmark batched multi-source query throughput (per-query heapq "
            "vs the source-grouped engine) and emit BENCH_queries.json"
        ),
    )
    query_bench_parser.add_argument(
        "--n", type=int, default=2000, help="number of vertices"
    )
    query_bench_parser.add_argument(
        "--degree",
        type=float,
        default=8.0,
        help="target average degree of the bucketed geometric graph",
    )
    query_bench_parser.add_argument("--seed", type=int, default=3)
    query_bench_parser.add_argument(
        "--queries", type=int, default=256, help="size of the query batch"
    )
    query_bench_parser.add_argument(
        "--sources",
        type=int,
        default=16,
        help="distinct source pool size (batching amortizes per shared source)",
    )
    query_bench_parser.add_argument("--query-seed", type=int, default=11)
    query_bench_parser.add_argument(
        "--strategies",
        default=None,
        help=(
            "comma-separated query strategies to run (per-query-heapq, "
            "batched-engine); defaults to both"
        ),
    )
    _add_bench_matrix_options(
        query_bench_parser, bench="query", output="BENCH_queries.json"
    )
    query_bench_parser.set_defaults(handler=_command_bench_queries)

    profile_parser = subparsers.add_parser(
        "profile",
        help=(
            "cProfile a preset workload (build or queries) and print the "
            "top-N table; CI uploads it as an artifact next to the bench rows"
        ),
    )
    profile_parser.add_argument(
        "--workload",
        choices=["build", "queries"],
        default="build",
        help="which hot path to profile",
    )
    profile_parser.add_argument("--n", type=int, default=5000)
    profile_parser.add_argument("--degree", type=float, default=16.0)
    profile_parser.add_argument("--seed", type=int, default=3)
    profile_parser.add_argument(
        "--queries", type=int, default=512, help="query batch size (queries workload)"
    )
    profile_parser.add_argument(
        "--sources", type=int, default=32, help="source pool size (queries workload)"
    )
    profile_parser.add_argument(
        "--sort",
        choices=["cumulative", "tottime"],
        default="cumulative",
        help="pstats sort column",
    )
    profile_parser.add_argument(
        "--top", type=int, default=30, help="number of rows to print"
    )
    profile_parser.add_argument(
        "--output", default=None, help="also write the table to this file"
    )
    profile_parser.set_defaults(handler=_command_profile)

    service_bench_parser = subparsers.add_parser(
        "bench-service",
        help=(
            "run the service chaos bench (worker death, artifact bit-flip, "
            "warm cache, lease reclaim) and emit BENCH_service.json"
        ),
    )
    service_bench_parser.add_argument(
        "--n", type=int, default=300, help="geometric workload size (ad-hoc rows)"
    )
    service_bench_parser.add_argument(
        "--radius", type=float, default=0.12, help="geometric connection radius"
    )
    service_bench_parser.add_argument("--seed", type=int, default=7)
    service_bench_parser.add_argument("--stretch", type=float, default=1.5)
    service_bench_parser.add_argument(
        "--kill-band",
        type=int,
        default=1,
        help=(
            "SIGKILL the fork worker filtering this band of the cold build "
            "(-1 disables the injection)"
        ),
    )
    _add_bench_matrix_options(
        service_bench_parser, bench="service", output="BENCH_service.json", workers=True
    )
    service_bench_parser.set_defaults(handler=_command_bench_service)

    service_parser = subparsers.add_parser(
        "service",
        help="crash-safe spanner job service (durable queue + artifact cache)",
    )
    service_subparsers = service_parser.add_subparsers(
        dest="service_command", required=True
    )

    def _add_root(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--root",
            type=Path,
            default=Path("service-root"),
            help="service state directory (jobs/ and cache/ live under it)",
        )

    submit_parser = service_subparsers.add_parser(
        "submit", help="append a build job to the durable queue"
    )
    _add_root(submit_parser)
    submit_parser.add_argument(
        "--kind",
        choices=["geometric", "euclidean", "clustered", "grid", "graph", "bucketed"],
        default="geometric",
        help="workload family (same generators as the bench commands)",
    )
    submit_parser.add_argument("--n", type=int, default=300, help="points / vertices")
    submit_parser.add_argument(
        "--radius", type=float, default=0.12, help="connection radius (geometric only)"
    )
    submit_parser.add_argument(
        "--dim", type=int, default=2, help="dimension (euclidean/clustered/grid)"
    )
    submit_parser.add_argument(
        "--clusters", type=int, default=50, help="Gaussian clusters (clustered only)"
    )
    submit_parser.add_argument(
        "--side", type=int, default=100, help="grid side length (grid only)"
    )
    submit_parser.add_argument(
        "--p", type=float, default=0.15, help="edge probability (graph only)"
    )
    submit_parser.add_argument(
        "--degree", type=float, default=96.0, help="average degree (bucketed only)"
    )
    submit_parser.add_argument("--seed", type=int, default=7)
    submit_parser.add_argument("--stretch", type=float, default=1.5)
    submit_parser.add_argument(
        "--chain",
        default=None,
        help=(
            "comma-separated degradation chain of registry builders "
            "(default greedy-parallel,approx-greedy,theta,yao,mst)"
        ),
    )
    submit_parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="time budget; past it only the terminal fallback tier runs",
    )
    submit_parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts before a job is quarantined as poison",
    )
    submit_parser.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="claim lease; an expired lease means the worker died and the job is re-run",
    )
    submit_parser.add_argument("--measure-stretch", action="store_true")
    submit_parser.set_defaults(handler=_command_service_submit)

    status_parser = service_subparsers.add_parser(
        "status",
        help=(
            "job table, or one job's record + history; exits nonzero with "
            "the stored traceback for failed/quarantined jobs"
        ),
    )
    _add_root(status_parser)
    status_parser.add_argument(
        "job_id", nargs="?", default=None, help="job id (omit for the full table)"
    )
    status_parser.add_argument(
        "--state",
        choices=["pending", "running", "done", "failed", "quarantined"],
        default=None,
        help="filter the table to one state",
    )
    status_parser.set_defaults(handler=_command_service_status)

    run_parser = service_subparsers.add_parser(
        "run-workers", help="drain the queue with supervised workers"
    )
    _add_root(run_parser)
    run_parser.add_argument(
        "--workers", type=int, default=1, help="worker identities to round-robin"
    )
    run_parser.add_argument(
        "--max-jobs", type=int, default=None, help="stop after this many jobs"
    )
    run_parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the post-build stretch re-verification (not recommended)",
    )
    run_parser.set_defaults(handler=_command_service_run_workers)

    cache_parser = service_subparsers.add_parser(
        "cache",
        help=(
            "list artifacts; --verify audits every checksum and exits "
            "nonzero (with digests) on corruption"
        ),
    )
    _add_root(cache_parser)
    cache_parser.add_argument(
        "--verify",
        action="store_true",
        help="re-hash every payload against its manifest (corrupt → quarantine)",
    )
    cache_parser.set_defaults(handler=_command_service_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
