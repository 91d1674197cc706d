"""Command-line interface for the reproduction.

Entry points (also usable as ``python -m repro.cli <command>``):

* ``list-workloads`` — print the workload registry.
* ``list-builders`` — print the spanner-builder registry.
* ``figure1`` — reproduce the paper's Figure 1 example.
* ``experiment <id>`` — run one experiment of the ``_EXPERIMENTS`` index
  below (E1–E9) and print its table.  ``--quick`` shrinks the workloads.
* ``compare`` — run the Euclidean construction comparison on a chosen
  workload size and stretch.
* ``spanner`` — build a spanner of a registered workload with any registered
  builder (``--builder``, default greedy) and print its statistics.
* ``bench <name>`` — run rows of one of the six perf trajectories
  (``oracles``, ``overlays``, ``verify``, ``build``, ``queries``,
  ``service``; :data:`repro.experiments.bench.BENCHES`), print
  each row's table and cross-check flags, and merge the runs into
  ``BENCH_<name>.json`` (see docs/PERFORMANCE.md).  ``--workloads`` takes
  preset keys, ``all``, or any other well-formed key of the bench, so an
  ad-hoc workload is spelled by its key.
* ``service submit|status|run-workers|cache`` — the crash-safe job service
  (:mod:`repro.service`): submit a build request to the durable queue,
  inspect job records (``status <job-id>`` exits nonzero with the stored
  traceback for failed/quarantined jobs), drain the queue with one
  supervised worker, and audit the content-addressed artifact cache (``cache
  --verify`` exits nonzero with the checksum digests on a corrupt
  artifact).  See docs/SERVICE.md.

The CLI exists so the repository can be exercised without writing Python —
e.g. ``python -m repro.cli experiment E3``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.core.distance_oracle import ORACLE_FACTORIES
from repro.experiments import experiments as exp
from repro.experiments.bench import BENCH_MODULES
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


def _split_names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _command_bench(args: argparse.Namespace) -> int:
    from repro.errors import BenchDocumentError, ReproError, UnknownWorkloadError
    from repro.experiments.bench import BENCHES, load_document, merge_run_into_file, render_rows

    spec = BENCHES[args.name]
    output = Path(args.output or f"BENCH_{spec.name}.json")
    keys = _split_names(args.workloads)
    if keys == ["all"]:
        keys = list(spec.presets)
    unknown = []
    for key in keys:
        try:
            spec.parse_key(key)
        except UnknownWorkloadError:
            unknown.append(key)
    if not keys or unknown:
        print(
            f"unknown {spec.name} workload keys: {', '.join(unknown) or '(none given)'}; "
            "give any well-formed key of the bench, 'all', or a preset:"
        )
        for key in spec.presets:
            print(f"  {key}")
        return 2
    strategies = None
    if args.strategies is not None:
        strategies = _split_names(args.strategies)
        unknown = [name for name in strategies if name not in spec.strategy_names]
        if not strategies or unknown:
            print(
                f"unknown {spec.name} strategies: {', '.join(unknown) or '(none given)'}; "
                f"valid names: {', '.join(spec.strategy_names) or '(none: fixed phases)'}"
            )
            return 2
    options: dict[str, object] = {}
    if args.workers is not None:
        options["workers"] = args.workers
    if args.no_memory:
        options["measure_memory"] = False
    unsupported = sorted(set(options) - spec.run_options)
    if unsupported:
        print(f"bench {spec.name} takes no {', '.join(unsupported)} option")
        return 2
    if output.exists():
        try:
            load_document(output)  # fail before the runs, not after them
        except BenchDocumentError as error:
            print(str(error))
            return 2

    all_ok = True
    for key in keys:
        try:
            run = spec.run_key(key, strategies, **options)
        except (ValueError, ReproError) as error:
            # e.g. an approx-greedy strategy or a Euclidean-only builder
            # asked to run on a graph workload.
            print(f"cannot bench {key}: {error}")
            return 2
        merge_run_into_file(output, run, spec)
        print(render_table(render_rows(run, spec), title=f"bench {spec.name}: {key}"))
        if spec.gate is not None and spec.gate.field in run:
            print(f"{spec.gate.field}: {run[spec.gate.field]:.4g}")
        for flag, value in spec.flag_values(run).items():
            print(f"{flag}: {value}")
            all_ok = all_ok and value
    print(f"trajectory written to {output}")
    return 0 if all_ok else 1


def _command_profile(args: argparse.Namespace) -> int:
    """cProfile a preset workload and print/save the top-N cumulative table.

    The same table CI uploads as an artifact next to the gated bench rows, so
    a regression report always ships with the profile that explains it.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    header = ""
    if args.workload == "build":
        from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
        from repro.experiments.build_bench import run_build_bench
        from repro.metric.generators import uniform_points
        from repro.service.workers import build_workload_instance
        from repro.spanners.verification import verify_spanner_edges
        from repro.workload_kinds import workload as make_workload

        workload = make_workload(
            "bucketed-geometric", n=args.n, degree=args.degree, seed=args.seed
        )
        started = time.perf_counter()
        graph = build_workload_instance(workload)
        instance_seconds = time.perf_counter() - started
        stretch = float(workload["stretch"])
        spanner = greedy_spanner(graph, stretch)
        metric = uniform_points(250, 2, seed=args.seed)
        # A service job's instance, both greedy builders (the shared ball
        # kernel from the oracle and from the band filter), the base-edge
        # check a service job runs on its greedy spanner, then one streamed
        # metric build (n=250, t=1.5: the size of perfbench's metric-build op).
        profiler.enable()
        build_workload_instance(workload)
        run_build_bench(workload, strategies=("greedy-serial", "csr-parallel-w1"))
        verify_spanner_edges(spanner.subgraph, graph, stretch)
        metric_spanner = greedy_spanner_of_metric(metric, 1.5)
        profiler.disable()
        # Whether the metric build's balls resumed, and its coverage, next to the table.
        header = "metric build (uniform n=250, t=1.5): " + " / ".join(
            f"{key} {metric_spanner.metadata[key]:.0f}"
            for key in ("dijkstra_settles", "balls_resumed", "settles_resumed",
                        "cache_hits", "cache_misses", "coverage_entries")
        ) + f"\ninstance (bucketed n={args.n}, unprofiled): {instance_seconds:.3f} s\n"
    else:
        from repro.core.query_engine import QueryEngine
        from repro.experiments.query_bench import run_query_bench, skewed_batches
        from repro.graph.indexed_graph import IndexedGraph
        from repro.workload_kinds import build_instance, workload as make_workload

        workload = make_workload(
            "query-bucketed", n=args.n, degree=args.degree, seed=args.seed,
            queries=args.queries, sources=args.sources,
        )
        indexed = IndexedGraph.from_weighted_graph(build_instance(workload))
        batches = skewed_batches(indexed.number_of_vertices)
        engine = QueryEngine(indexed)
        # The bench row (per-query reference and a fresh engine), then one
        # engine answering the skewed stream, which resumes and evicts
        # parked searches.
        profiler.enable()
        run_query_bench(workload)
        for sources, targets in batches:
            engine.run_queries_ids(sources, targets)
        profiler.disable()
        counters = engine.counters()
        header = f"skewed stream ({len(batches)} batches): " + " / ".join(
            f"{key} {counters['engine_' + key]:.0f}"
            for key in ("sources", "resumed", "evicted", "settles")
        ) + "\n"

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(args.sort).print_stats(args.top)
    report = header + buffer.getvalue()
    print(report)
    if args.output:
        Path(args.output).write_text(report)
        print(f"profile written to {args.output}")
    return 0


#: ``service submit --kind`` spelling -> workload kind.
_SUBMIT_KINDS = {
    "geometric": "geometric",
    "euclidean": "uniform-euclidean",
    "clustered": "clustered-euclidean",
    "grid": "grid-euclidean",
    "graph": "erdos-renyi",
    "bucketed": "bucketed-geometric",
}


def _submit_workload(args: argparse.Namespace) -> dict[str, object]:
    """The workload dictionary of one ``service submit`` invocation: the
    kind's fields, each from the flag of its name."""
    from repro.workload_kinds import KINDS, workload

    kind = _SUBMIT_KINDS[args.kind]
    return workload(kind, **{name: getattr(args, name) for name in KINDS[kind].fields})


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
        "workload": _submit_workload(args),
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
    from repro.service.queue import JobQueue
    from repro.service.workers import run_service

    # Leases are owned by worker id, so ids must differ between processes
    # sharing one --root: tag it with the process id.
    summary = run_service(
        args.root,
        worker_id=f"worker-{os.getpid()}",
        max_jobs=args.max_jobs,
        verify=not args.no_verify,
    )
    for name, value in sorted(summary.items()):
        print(f"{name}: {value}")
    failed = [
        job for job in JobQueue(args.root).list_jobs() if job.state in ("failed", "quarantined")
    ]
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
    # A stale (older-schema) manifest is not corrupt: it reads as a miss.
    stale = sum(entry["stale"] for entry in report.values())
    corrupt = {key: entry for key, entry in report.items() if not (entry["ok"] or entry["stale"])}
    for key, entry in corrupt.items():
        print(
            f"CORRUPT {key}: manifest sha256 {entry['expected']} != {entry['part']} "
            f"sha256 {entry['actual']} (quarantined)"
        )
    print(f"verified {len(report)} artifact(s); corrupt: {len(corrupt)}; stale: {stale}")
    return 1 if corrupt else 0


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

    experiment_parser = subparsers.add_parser("experiment", help="run one experiment (E1-E9)")
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
        "bench",
        help="run rows of a perf trajectory and merge them into BENCH_<name>.json",
    )
    bench_parser.add_argument("name", choices=list(BENCH_MODULES), help="trajectory")
    bench_parser.add_argument(
        "--workloads",
        required=True,
        help=(
            "comma-separated workload keys: the presets in "
            "benchmarks/BENCH_<name>.json, 'all' presets, or any other "
            "well-formed key of the bench (e.g. geometric-n80-r0.25-seed7-t1.5)"
        ),
    )
    bench_parser.add_argument(
        "--strategies",
        default=None,
        help=(
            "comma-separated strategies (oracles, builders or engine modes) "
            "to run; defaults to each row's preset set"
        ),
    )
    bench_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes of the sharded verification path (verify; "
            "-1 = all CPUs; counters are identical for any worker count)"
        ),
    )
    bench_parser.add_argument(
        "--no-memory",
        action="store_true",
        help="skip tracemalloc peak-memory tracking (oracles; tracing ~doubles wall clock)",
    )
    bench_parser.add_argument(
        "--output", default=None, help="trajectory to merge into (default BENCH_<name>.json)"
    )
    bench_parser.set_defaults(handler=_command_bench)

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
        choices=list(_SUBMIT_KINDS),
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
            "(default greedy,approx-greedy,theta,yao,mst)"
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
        "run-workers", help="drain the queue with one supervised worker"
    )
    _add_root(run_parser)
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
