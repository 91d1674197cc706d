#!/usr/bin/env python
"""Compare a fresh ``BENCH_oracles.json`` against the committed baseline.

The oracle benchmark (``repro bench-oracles``, or the matrix benchmark in
``benchmarks/test_bench_oracle_matrix.py``) records *operation counts*
(``dijkstra_settles``, ``distance_queries``) per oracle strategy.  Unlike
wall-clock time these are deterministic for a fixed workload seed, so they
can be diffed machine-independently: an operation-count increase means the
hot path genuinely got slower, not that CI got a noisy neighbour.

The overlay benchmark (``repro bench-overlays``) emits the same document
shape with ``overlay_*`` counters (heap pops of the routing-table,
broadcast and synchronizer engines), and the verification benchmark
(``repro bench-verify``) with ``verify_settles`` / ``profile_settles``
(bounded-ball and SSSP settles of the batch verification engine), so one
checker gates all three trajectories: pass ``--fresh-overlays`` /
``--baseline-overlays`` and/or ``--fresh-verify`` / ``--baseline-verify``
to diff the extra pairs in the same invocation.  A verification run whose
cross-check flags (``verdicts_match`` / ``profiles_match`` — the indexed
engine reproducing the reference verdicts and bit-identical profile
floats) are false always fails the gate.

The fault-injection benchmark (``repro bench-faults``) emits ``fault_*``
retry/loss protocol counters plus the self-healing ``repair_settles`` /
``rebuild_settles`` replay counters; pass ``--fresh-faults`` /
``--baseline-faults`` to gate it too.  Fault runs get three extra checks on
top of the counter diff: the cross-check flags (``delivery_complete``,
``repair_matches_rebuild``, ``post_repair_verified``,
``fault_replay_match``) must not be false, the ``delivery_rate`` must never
drop below the baseline's (a floor, not a ratio — losing delivery is a
correctness regression at any magnitude), and every run marked
``gate_repair_speedup`` must record a repair-vs-rebuild settle speedup of
at least ``--min-repair-speedup`` (default 5×, the ISSUE's acceptance bar;
checked in *both* documents, so the committed scale-row evidence is
re-validated even when CI regenerates only the small rows).

The construction benchmark (``repro bench-build``) emits ``build_*``
filter/replay counters per strategy plus the ``builds_match`` cross-check
flag (every strategy — per-edge list path, cached serial, CSR band-parallel
with 1 and N workers — must produce the byte-identical greedy edge set);
pass ``--fresh-build`` / ``--baseline-build`` to gate it.  Runs marked
``gate_build_speedup`` (the committed ``n = 10⁵`` scale row) must record a
``build_speedup`` — per-edge baseline wall-clock over the CSR
band-parallel path — of at least ``--min-build-speedup`` (default 3×),
checked in both documents like the repair gate.

The query-throughput benchmark (``repro bench-queries``) emits
``query_settles`` / ``engine_sources`` counters per strategy plus the
``queries_match`` cross-check flag (the source-grouped batched engine
must return the exact distance list of the per-query heapq reference);
pass ``--fresh-queries`` / ``--baseline-queries`` to gate it.  Runs marked
``gate_query_speedup`` must record a ``query_speedup`` — per-query heapq
wall-clock over the batched engine — of at least ``--min-query-speedup``
(default 3×), checked in both documents like the other scale-row gates.

The service chaos benchmark (``repro bench-service``) emits ``service_*``
recovery/event counters plus the recovery guarantee flags
(``service_verified``, ``rebuild_matches``, ``never_served_corrupt``,
``warm_cache_hit``, ``reclaim_completed``, ``chaos_recovered``); pass
``--fresh-service`` / ``--baseline-service`` to gate it.  Runs marked
``gate_serve_ratio`` (the committed ``n = 10⁴`` scale row) must record a
``warm_serve_ratio`` — warm cache-hit wall-clock over cold build
wall-clock — of at most ``--max-serve-ratio`` (default 0.01), checked in
both documents like the other scale-row gates.

Usage (standalone)::

    python scripts/check_bench_regression.py \
        --fresh BENCH_oracles.json \
        --baseline benchmarks/BENCH_oracles.json \
        --fresh-overlays BENCH_overlays.json \
        --baseline-overlays benchmarks/BENCH_overlays.json \
        --fresh-verify BENCH_verify.json \
        --baseline-verify benchmarks/BENCH_verify.json \
        --fresh-faults BENCH_faults.json \
        --baseline-faults benchmarks/BENCH_faults.json \
        --fresh-build BENCH_build.json \
        --baseline-build benchmarks/BENCH_build.json \
        --fresh-queries BENCH_queries.json \
        --baseline-queries benchmarks/BENCH_queries.json \
        --threshold 0.25

Exit code 1 if any strategy's operation count regressed by more than the
threshold (default 25%) on any workload present in both files.  The pytest
entry points live in ``benchmarks/test_bench_oracle_matrix.py`` and
``benchmarks/test_bench_overlays.py`` (marker ``bench_regression``); all
import :func:`find_regressions` below.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.25

#: Deterministic counters compared per strategy (mirrors
#: ``repro.experiments.oracle_bench.OPERATION_COUNT_KEYS`` plus
#: ``repro.experiments.overlay_bench.OPERATION_COUNT_KEYS`` plus
#: ``repro.experiments.verify_bench.OPERATION_COUNT_KEYS``; duplicated here
#: so the script runs without PYTHONPATH set up).  The ``cluster_*`` /
#: ``approximate_queries`` counters gate the Approximate-Greedy rows, the
#: ``overlay_*`` counters the distributed overlay engine rows, and
#: ``verify_settles`` / ``profile_settles`` the batch verification rows
#: (op counts only — never wall-clock).
OPERATION_COUNT_KEYS = (
    "dijkstra_settles",
    "distance_queries",
    "approximate_queries",
    "cluster_merges",
    "cluster_initial_settles",
    "cluster_transition_settles",
    "cluster_query_settles",
    "overlay_broadcast_messages",
    "overlay_broadcast_events",
    "overlay_route_settles",
    "overlay_sync_settles",
    "verify_settles",
    "profile_settles",
    # Fault-injection trajectory (repro.experiments.fault_bench): hardened
    # protocol counters and the self-healing replay counters.
    "fault_messages",
    "fault_data_sends",
    "fault_retries",
    "fault_acks",
    "fault_duplicates",
    "fault_timers",
    "fault_give_ups",
    "fault_lost",
    "fault_events",
    "fault_echo_messages",
    "fault_echo_retries",
    "fault_echo_give_ups",
    "repair_settles",
    "repair_queries",
    "rebuild_settles",
    "replayed_edges",
    "detours",
    "undelivered",
    # Construction trajectory (repro.experiments.build_bench): the CSR
    # band-parallel builder's deterministic filter/replay counters.
    "build_filter_settles",
    "build_replay_settles",
    "build_candidate_edges",
    # Query trajectory (repro.experiments.query_bench): settles of the
    # batched multi-source engine and its per-query reference twin.
    "query_settles",
    "engine_sources",
    # Service trajectory (repro.experiments.service_bench): recovery and
    # cache event counts of the chaos sequence (all deterministic — each
    # phase induces a fixed number of failures).
    "service_jobs_done",
    "service_jobs_failed",
    "service_cache_hits",
    "service_cache_misses",
    "service_cache_puts",
    "service_corrupt_quarantined",
    "service_corrupt_rebuilds",
    "service_lease_reclaims",
    "service_poison_quarantined",
    "service_worker_deaths",
    "service_spanner_edges",
)

#: Boolean cross-check flags a fresh run must not record as false
#: (``identical_edge_sets`` and friends are handled explicitly below).
#: Missing flags pass — each trajectory only records the flags it defines.
CROSS_CHECK_FLAGS = (
    "verdicts_match",
    "profiles_match",
    "delivery_complete",
    "repair_matches_rebuild",
    "post_repair_verified",
    "fault_replay_match",
    "builds_match",
    # Query trajectory: the batched engine must reproduce the per-query
    # reference distances bit for bit.
    "queries_match",
    # Service trajectory: the recovery guarantees (verified serve, a
    # corrupted artifact quarantined and rebuilt byte-identical, warm hit,
    # expired lease reclaimed, injected worker death survived).
    "service_verified",
    "rebuild_matches",
    "never_served_corrupt",
    "warm_cache_hit",
    "reclaim_completed",
    "chaos_recovered",
)

#: Default minimum repair-vs-rebuild settle speedup on runs marked
#: ``gate_repair_speedup`` (the fault trajectory's scale-row acceptance bar).
DEFAULT_MIN_REPAIR_SPEEDUP = 5.0

#: Default minimum per-edge-baseline vs CSR band-parallel wall-clock speedup
#: on runs marked ``gate_build_speedup`` (the construction trajectory's
#: scale-row acceptance bar).
DEFAULT_MIN_BUILD_SPEEDUP = 3.0

#: Default minimum per-query-heapq vs batched-engine wall-clock speedup on
#: runs marked ``gate_query_speedup`` (the query trajectory's acceptance bar).
DEFAULT_MIN_QUERY_SPEEDUP = 3.0

#: Default maximum warm-serve/cold-build wall-clock ratio on service runs
#: marked ``gate_serve_ratio`` (the service trajectory's scale-row
#: acceptance bar: a warm cache hit must serve in under 1% of the build).
DEFAULT_MAX_SERVE_RATIO = 0.01


def load_document(path: str | Path) -> dict:
    """Load one BENCH_oracles.json document."""
    return json.loads(Path(path).read_text())


def find_regressions(
    baseline: dict,
    fresh: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_repair_speedup: float = DEFAULT_MIN_REPAIR_SPEEDUP,
    min_build_speedup: float = DEFAULT_MIN_BUILD_SPEEDUP,
    min_query_speedup: float = DEFAULT_MIN_QUERY_SPEEDUP,
    max_serve_ratio: float = DEFAULT_MAX_SERVE_RATIO,
) -> list[str]:
    """Return human-readable regression descriptions (empty list = all good).

    Only workload keys and strategies present in *both* documents are
    compared for counters; a regression is a fresh operation count exceeding
    the baseline count by more than ``threshold`` (fractional, e.g. 0.25 =
    +25%).  An edge-set mismatch or false cross-check flag recorded in the
    fresh run is always reported, a fresh ``delivery_rate`` below the
    baseline's fails regardless of threshold, and the
    ``gate_repair_speedup`` bar is checked in both documents (baseline rows
    carry committed evidence even when not regenerated fresh).
    """
    problems: list[str] = []
    baseline_runs = baseline.get("runs", {})
    fresh_runs = fresh.get("runs", {})
    # The speedup gates scan both documents — a gated row whose committed
    # evidence falls below the bar is a problem even if CI didn't rerun it.
    seen_gated: set[str] = set()
    seen_build_gated: set[str] = set()
    seen_query_gated: set[str] = set()
    seen_serve_gated: set[str] = set()
    for label, runs in (("fresh", fresh_runs), ("baseline", baseline_runs)):
        for key, run in sorted(runs.items()):
            if run.get("gate_repair_speedup") and key not in seen_gated:
                seen_gated.add(key)
                speedup = float(run.get("repair_speedup", 0.0))
                if speedup < min_repair_speedup:
                    problems.append(
                        f"{key}: {label} repair speedup {speedup:.2f}x is below the "
                        f"required {min_repair_speedup:.2f}x (rebuild_settles / "
                        "repair_settles on a gated row)"
                    )
            if run.get("gate_build_speedup") and key not in seen_build_gated:
                seen_build_gated.add(key)
                speedup = float(run.get("build_speedup", 0.0))
                if speedup < min_build_speedup:
                    problems.append(
                        f"{key}: {label} build speedup {speedup:.2f}x is below the "
                        f"required {min_build_speedup:.2f}x (per-edge baseline / "
                        "CSR band-parallel wall-clock on a gated row)"
                    )
            if run.get("gate_query_speedup") and key not in seen_query_gated:
                seen_query_gated.add(key)
                speedup = float(run.get("query_speedup", 0.0))
                if speedup < min_query_speedup:
                    problems.append(
                        f"{key}: {label} query speedup {speedup:.2f}x is below the "
                        f"required {min_query_speedup:.2f}x (per-query heapq / "
                        "batched engine wall-clock on a gated row)"
                    )
            if run.get("gate_serve_ratio") and key not in seen_serve_gated:
                seen_serve_gated.add(key)
                ratio = float(run.get("warm_serve_ratio", 1.0))
                if ratio > max_serve_ratio:
                    problems.append(
                        f"{key}: {label} warm serve ratio {ratio:.4f} exceeds the "
                        f"allowed {max_serve_ratio:.4f} (warm cache hit / cold "
                        "build wall-clock on a gated row)"
                    )
    shared = sorted(set(baseline_runs) & set(fresh_runs))
    if not shared:
        problems.append("no shared workload keys between baseline and fresh runs")
        return problems
    for key in shared:
        fresh_run = fresh_runs[key]
        if not fresh_run.get("identical_edge_sets", True):
            problems.append(f"{key}: oracle strategies produced different edge sets")
        if not fresh_run.get("approx_identical_edge_sets", True):
            problems.append(
                f"{key}: incremental and from-scratch approx-greedy engines "
                "produced different edge sets"
            )
        for flag in CROSS_CHECK_FLAGS:
            if not fresh_run.get(flag, True):
                problems.append(
                    f"{key}: {flag} is false — a cross-checked engine diverged "
                    "or a guarantee was violated in the fresh run"
                )
        base_rate = baseline_runs[key].get("delivery_rate")
        fresh_rate = fresh_run.get("delivery_rate")
        if base_rate is not None and fresh_rate is not None:
            if fresh_rate < base_rate - 1e-12:
                problems.append(
                    f"{key}: delivery_rate dropped from {base_rate:.4f} to "
                    f"{fresh_rate:.4f} (the floor is the baseline rate)"
                )
        base_strategies = baseline_runs[key].get("strategies", {})
        fresh_strategies = fresh_run.get("strategies", {})
        for name in sorted(set(base_strategies) & set(fresh_strategies)):
            for counter in OPERATION_COUNT_KEYS:
                base_value = base_strategies[name].get(counter)
                fresh_value = fresh_strategies[name].get(counter)
                if base_value is None or fresh_value is None:
                    continue
                if base_value == 0:
                    # A zero baseline must stay zero: any nonzero fresh count
                    # is new work the gate would otherwise never see.
                    if fresh_value > 0:
                        problems.append(
                            f"{key}: {name}.{counter} regressed from a zero "
                            f"baseline to {fresh_value:.0f}"
                        )
                    continue
                ratio = fresh_value / base_value
                if ratio > 1.0 + threshold:
                    problems.append(
                        f"{key}: {name}.{counter} regressed {ratio:.2f}x "
                        f"({base_value:.0f} -> {fresh_value:.0f}, "
                        f"threshold {1.0 + threshold:.2f}x)"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", default="BENCH_oracles.json", help="freshly emitted trajectory")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_oracles.json",
        help="committed baseline trajectory",
    )
    parser.add_argument(
        "--fresh-overlays",
        default=None,
        help="freshly emitted overlay trajectory (BENCH_overlays.json); optional",
    )
    parser.add_argument(
        "--baseline-overlays",
        default="benchmarks/BENCH_overlays.json",
        help="committed overlay baseline trajectory",
    )
    parser.add_argument(
        "--fresh-verify",
        default=None,
        help="freshly emitted verification trajectory (BENCH_verify.json); optional",
    )
    parser.add_argument(
        "--baseline-verify",
        default="benchmarks/BENCH_verify.json",
        help="committed verification baseline trajectory",
    )
    parser.add_argument(
        "--fresh-faults",
        default=None,
        help="freshly emitted fault trajectory (BENCH_faults.json); optional",
    )
    parser.add_argument(
        "--baseline-faults",
        default="benchmarks/BENCH_faults.json",
        help="committed fault baseline trajectory",
    )
    parser.add_argument(
        "--fresh-build",
        default=None,
        help="freshly emitted construction trajectory (BENCH_build.json); optional",
    )
    parser.add_argument(
        "--baseline-build",
        default="benchmarks/BENCH_build.json",
        help="committed construction baseline trajectory",
    )
    parser.add_argument(
        "--fresh-queries",
        default=None,
        help="freshly emitted query trajectory (BENCH_queries.json); optional",
    )
    parser.add_argument(
        "--baseline-queries",
        default="benchmarks/BENCH_queries.json",
        help="committed query baseline trajectory",
    )
    parser.add_argument(
        "--fresh-service",
        default=None,
        help="freshly emitted service trajectory (BENCH_service.json); optional",
    )
    parser.add_argument(
        "--baseline-service",
        default="benchmarks/BENCH_service.json",
        help="committed service baseline trajectory",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional operation-count increase (0.25 = +25%%)",
    )
    parser.add_argument(
        "--min-repair-speedup",
        type=float,
        default=DEFAULT_MIN_REPAIR_SPEEDUP,
        help=(
            "minimum rebuild/repair settle ratio required of fault runs "
            "marked gate_repair_speedup (checked in baseline and fresh)"
        ),
    )
    parser.add_argument(
        "--min-build-speedup",
        type=float,
        default=DEFAULT_MIN_BUILD_SPEEDUP,
        help=(
            "minimum per-edge-baseline/CSR-parallel wall-clock ratio required "
            "of build runs marked gate_build_speedup (checked in baseline and fresh)"
        ),
    )
    parser.add_argument(
        "--min-query-speedup",
        type=float,
        default=DEFAULT_MIN_QUERY_SPEEDUP,
        help=(
            "minimum per-query-heapq/batched-engine wall-clock ratio required "
            "of query runs marked gate_query_speedup (checked in baseline and fresh)"
        ),
    )
    parser.add_argument(
        "--max-serve-ratio",
        type=float,
        default=DEFAULT_MAX_SERVE_RATIO,
        help=(
            "maximum warm-serve/cold-build wall-clock ratio allowed of "
            "service runs marked gate_serve_ratio (checked in baseline and fresh)"
        ),
    )
    args = parser.parse_args(argv)

    pairs = [("oracles", args.baseline, args.fresh)]
    if args.fresh_overlays is not None:
        pairs.append(("overlays", args.baseline_overlays, args.fresh_overlays))
    if args.fresh_verify is not None:
        pairs.append(("verify", args.baseline_verify, args.fresh_verify))
    if args.fresh_faults is not None:
        pairs.append(("faults", args.baseline_faults, args.fresh_faults))
    if args.fresh_build is not None:
        pairs.append(("build", args.baseline_build, args.fresh_build))
    if args.fresh_queries is not None:
        pairs.append(("queries", args.baseline_queries, args.fresh_queries))
    if args.fresh_service is not None:
        pairs.append(("service", args.baseline_service, args.fresh_service))

    problems: list[str] = []
    for label, baseline_path, fresh_path in pairs:
        for path in (fresh_path, baseline_path):
            if not Path(path).exists():
                print(f"missing file: {path}", file=sys.stderr)
                return 2
        problems.extend(
            f"[{label}] {problem}"
            for problem in find_regressions(
                load_document(baseline_path),
                load_document(fresh_path),
                threshold=args.threshold,
                min_repair_speedup=args.min_repair_speedup,
                min_build_speedup=args.min_build_speedup,
                min_query_speedup=args.min_query_speedup,
                max_serve_ratio=args.max_serve_ratio,
            )
        )
    if problems:
        print("operation-count regressions detected:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("no operation-count regressions (threshold +{:.0%})".format(args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
