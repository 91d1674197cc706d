"""Fault-injection benchmark: the resilience trajectory behind ``repro bench faults``.

The distributed stack so far measured overlays on a *perfect* network.  This
bench measures the hardened stack end to end under a seeded
:class:`~repro.distributed.faults.FaultPlan`:

* the hardened flood + echo (:mod:`repro.distributed.resilient`) runs over
  a greedy-spanner overlay, with the plan dropping, delaying and severing
  messages — the record keeps the retry / duplicate / timeout / give-up
  counters and the ``delivery_complete`` guarantee (every
  surviving-reachable vertex reached);
* the spanner is then self-healed around the plan's failed edges
  (:meth:`~repro.core.spanner.Spanner.repair` with ``cross_check=True``), so
  every run re-proves repair ≡ rebuild bit for bit and records the
  ``repair_settles`` vs ``rebuild_settles`` ratio the ≥5× gate rides on;
* routing detours around the failed links with the pre-failure tables
  (:func:`~repro.distributed.routing.evaluate_detour_routing`) and the
  stretch-degradation percentiles land in the same record.

Every number in the record is a pure function of the workload description —
fault schedules are sampled from the seed, message coins are stable hashes —
so ``scripts/check_bench_regression.py`` can diff fresh runs against the
committed baseline in ``benchmarks/BENCH_faults.json`` exactly like the
oracle / overlay / verify trajectories, plus two fault-specific gates: the
``delivery_rate`` floor (never below baseline) and the minimum
repair-vs-rebuild speedup on gated rows.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.greedy import greedy_spanner
from repro.distributed.faults import FaultPlan
from repro.distributed.resilient import (
    ResilientParams,
    delivery_report,
    resilient_echo,
    resilient_flood,
)
from repro.distributed.routing import evaluate_detour_routing, random_demands
from repro.experiments.bench import BenchSpec, Gate, Preset, key_parser
from repro.experiments.overlay_bench import (
    SPEC as _OVERLAY_SPEC,
    _build_instance as _build_overlay_instance,
    geometric_workload,
    workload_key as _overlay_workload_key,
)

#: The record keys the protocol counters under the engine's label, as the
#: committed rows do.
ENGINE = "indexed"

#: Workload keys that describe the fault regime rather than the base instance.
_FAULT_KEYS = (
    "fault_seed",
    "edge_failure_rate",
    "failure_band",
    "node_crash_rate",
    "drop_rate",
    "ack_drop_rate",
    "delay_jitter",
    "repair_oracle",
)


def fault_workload(
    base: dict[str, object],
    *,
    fault_seed: int = 11,
    edge_failure_rate: float = 0.02,
    failure_band: float = 0.3,
    node_crash_rate: float = 0.0,
    drop_rate: float = 0.05,
    ack_drop_rate: Optional[float] = None,
    delay_jitter: float = 0.25,
    repair_oracle: str = "cached",
) -> dict[str, object]:
    """Attach a fault regime to a bench workload description."""
    workload = dict(base)
    workload["fault_seed"] = int(fault_seed)
    workload["edge_failure_rate"] = float(edge_failure_rate)
    workload["failure_band"] = float(failure_band)
    workload["node_crash_rate"] = float(node_crash_rate)
    workload["drop_rate"] = float(drop_rate)
    if ack_drop_rate is not None:
        workload["ack_drop_rate"] = float(ack_drop_rate)
    workload["delay_jitter"] = float(delay_jitter)
    workload["repair_oracle"] = str(repair_oracle)
    return workload


def _without_faults(workload: dict[str, object]) -> dict[str, object]:
    return {key: value for key, value in workload.items() if key not in _FAULT_KEYS}


def workload_key(workload: dict[str, object]) -> str:
    """Stable run key: the overlay workload key plus the fault-regime suffix."""
    suffix = "f{}-ef{}-fb{}-nc{}-dr{}-dj{}-o{}".format(
        int(workload["fault_seed"]),
        float(workload["edge_failure_rate"]),
        float(workload["failure_band"]),
        float(workload["node_crash_rate"]),
        float(workload["drop_rate"]),
        float(workload["delay_jitter"]),
        workload["repair_oracle"],
    )
    return f"{_overlay_workload_key(_without_faults(workload))}-{suffix}"


def _build_presets() -> dict[str, Preset]:
    """The named rows of the fault matrix.

    The CI row is small (its tie-for-tie replay against the seed engine is a
    tier-1 test); the gated scale row is ``n = 10⁴`` geometric, ≥5% drop,
    2% edge failures in the heaviest band, with the ``bounded`` repair
    oracle: no cross-run caching on either side, so repair and rebuild pay
    the same per-query price and the ≥5× gate measures the skipped prefix,
    not a cache artifact.  (With the ``cached`` oracle the rebuild shares
    ball harvests across its own run, and the same row measures only
    4.52×: 119,929 repair settles against 542,602 rebuild settles.  The
    ``bounded`` row measures 5.97× on identical spanner edges.)
    """
    rows: tuple[tuple[dict[str, object], bool], ...] = (
        (
            fault_workload(
                geometric_workload(n=300, radius=0.12, seed=7, stretch=1.5),
                fault_seed=11,
                edge_failure_rate=0.02,
                failure_band=0.3,
                node_crash_rate=0.02,
                drop_rate=0.05,
                delay_jitter=0.25,
                repair_oracle="cached",
            ),
            False,
        ),
        (
            fault_workload(
                geometric_workload(n=10000, radius=0.025, seed=7, stretch=1.2),
                fault_seed=11,
                edge_failure_rate=0.02,
                failure_band=0.02,
                node_crash_rate=0.0,
                drop_rate=0.05,
                delay_jitter=0.25,
                repair_oracle="bounded",
            ),
            True,
        ),
    )
    return {
        workload_key(workload): Preset(workload, gated=gated)
        for workload, gated in rows
    }


def sample_fault_plan(overlay, workload: dict[str, object]) -> tuple[object, FaultPlan]:
    """The flood source (smallest ``repr``) and the workload's fault plan over ``overlay``."""
    source = min(overlay.vertices(), key=repr)
    plan = FaultPlan.sample(
        overlay,
        seed=int(workload["fault_seed"]),
        edge_failure_rate=float(workload["edge_failure_rate"]),
        failure_band=float(workload["failure_band"]),
        node_crash_rate=float(workload["node_crash_rate"]),
        drop_rate=float(workload["drop_rate"]),
        ack_drop_rate=(
            float(workload["ack_drop_rate"]) if "ack_drop_rate" in workload else None
        ),
        delay_jitter=float(workload["delay_jitter"]),
        protect=(source,),
    )
    return source, plan


def _prefixed(row: dict[str, float], prefix: str) -> dict[str, float]:
    return {f"{prefix}{key}": value for key, value in row.items()}


def run_fault_bench(
    workload: dict[str, object],
    *,
    demand_count: int = 32,
    params: Optional[ResilientParams] = None,
) -> dict[str, object]:
    """Run the hardened flood/echo, self-healing repair and detour routing once.

    The record mirrors the other bench shapes (``"strategies"`` holding the
    protocol counters under :data:`ENGINE`, plus a ``"repair"``
    pseudo-strategy holding the replay counters) so
    :func:`scripts.check_bench_regression.find_regressions` gates all
    trajectories with the same code.  ``cross_check=True`` means every
    bench run re-proves repair ≡ rebuild instead of trusting it.
    """
    graph, metric = _build_overlay_instance(_without_faults(workload))
    if metric is not None:
        raise ValueError(
            "fault bench needs a materialized overlay graph; metric workloads "
            "have no physical edges to fail"
        )
    stretch = float(workload["stretch"])
    repair_oracle = str(workload.get("repair_oracle", "cached"))

    build_start = time.perf_counter()
    spanner = greedy_spanner(graph, stretch, oracle=repair_oracle)
    build_seconds = time.perf_counter() - build_start
    overlay = spanner.subgraph

    source, plan = sample_fault_plan(overlay, workload)

    start = time.perf_counter()
    flood = resilient_flood(overlay, source, plan, params=params)
    flood_seconds = time.perf_counter() - start
    echo = resilient_echo(overlay, source, flood, plan, params=params)
    delivery = delivery_report(overlay, source, plan, flood)

    record: dict[str, float] = {"flood_seconds": flood_seconds}
    record.update(_prefixed(flood.as_row(), "fault_"))
    record.update(_prefixed(echo.as_row(), "fault_"))
    record.update(delivery)
    records: dict[str, dict[str, float]] = {ENGINE: record}

    failed = plan.failed_edges()
    start = time.perf_counter()
    repair = spanner.repair(failed, oracle=repair_oracle, cross_check=True)
    repair_seconds = time.perf_counter() - start

    start = time.perf_counter()
    demands = random_demands(overlay, demand_count, seed=int(workload["fault_seed"]))
    detour = evaluate_detour_routing(overlay, demands, set(failed))
    detour_seconds = time.perf_counter() - start

    repair_record: dict[str, float] = {
        "repair_seconds": repair_seconds,
        "detour_seconds": detour_seconds,
    }
    repair_record.update(repair.counters())
    repair_record.update(detour.as_row())
    records["repair"] = repair_record

    result: dict[str, object] = {
        "workload": dict(workload),
        "strategies": records,
        "n": graph.number_of_vertices,
        "build_seconds": build_seconds,
        "spanner_edges": float(spanner.number_of_edges),
        "fault_plan": plan.describe(),
        "delivery_rate": delivery["delivery_rate"],
        "delivery_complete": bool(delivery["delivery_complete"]),
        "repair_matches_rebuild": bool(repair.matches_rebuild),
        "post_repair_verified": bool(repair.verified),
    }
    if repair.rebuild_settles is not None and repair.repair_settles > 0:
        result["repair_speedup"] = repair.rebuild_settles / repair.repair_settles
    return result


SPEC = BenchSpec(
    name="faults",
    description=(
        "Fault-injection benchmark trajectory (hardened flood/echo "
        "under a seeded FaultPlan, self-healing repair vs rebuild, "
        "detour routing); see docs/RESILIENCE.md. Regenerate with "
        "`repro bench faults`."
    ),
    label="mode",
    run=run_fault_bench,
    workload_key=workload_key,
    parse_key=key_parser(
        workload_key,
        (
            "{base}-f{fault_seed}-ef{edge_failure_rate}-fb{failure_band}"
            "-nc{node_crash_rate}-dr{drop_rate}-dj{delay_jitter}-o{repair_oracle}",
            lambda base, **regime: fault_workload(_OVERLAY_SPEC.parse_key(base), **regime),
        ),
    ),
    presets=_build_presets(),
    # Protocol counters are ``fault_``-prefixed so they never collide with
    # another trajectory's keys.
    counters=(
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
    ),
    flags=(
        "delivery_complete",
        "repair_matches_rebuild",
        "post_repair_verified",
    ),
    # Losing delivery is a correctness regression at any magnitude.
    floors=("delivery_rate",),
    gate=Gate("gate_repair_speedup", "repair_speedup", "min", 5.0),
)
