"""Service chaos benchmark: the recovery trajectory behind ``repro bench service``.

The :mod:`repro.service` layer claims to survive the failures a long-lived
deployment actually sees — a bit-flipped cached artifact, a claim holder
that dies without releasing its lease.  This bench *induces* each of those
failures against a real queue + cache rooted in a temporary directory and
records what the recovery machinery did:

* **cold phase** — submit the workload's build job and drain it with a
  supervised worker; the spanner is re-verified against the stretch bound
  before the artifact is committed;
* **corrupt phase** — flip one byte of the committed payload, resubmit the
  identical request, and require the checksum mismatch to quarantine the
  artifact and force a rebuild whose canonical edge list is byte-identical
  to the original (``rebuild_matches``) — a corrupted artifact is never
  served (``never_served_corrupt``);
* **warm phase** — resubmit once more and require a verified cache hit;
  ``warm_serve_ratio`` (serve wall-clock over cold build wall-clock) is the
  number the ``gate_serve_ratio`` rows hold below the 0.01 bar of :data:`SPEC`;
* **reclaim phase** — claim a fourth copy of the job under a throwaway
  worker id with a microscopic lease and walk away; the real worker must
  reclaim the expired lease (``queue.lease_reclaims``) and finish the job.

Every ``service_*`` counter in the record is a deterministic event count —
jobs done, cache hits/misses, quarantines, reclaims — so
``scripts/check_bench_regression.py`` diffs them exactly like the other
trajectories; wall-clock only enters through the gated serve
ratio, whose bar is generous (two orders of magnitude) precisely so CI
noise cannot trip it.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.experiments.bench import BenchSpec, Gate, Preset
from repro.workload_kinds import workload, workload_key


def _build_presets() -> dict[str, Preset]:
    """The named rows of the service matrix.

    The CI row is small (the full chaos sequence on every run); the scale
    row is the gated serving-latency evidence — an ``n = 10⁴`` geometric
    instance, where a warm hit must serve in under 1% of the cold build.
    """
    rows = (
        (workload("geometric", n=300, radius=0.12, seed=7, stretch=1.5), False),
        (workload("geometric", n=10000, radius=0.025, seed=7, stretch=1.2), True),
    )
    return {workload_key(row): Preset(row, gated=gated) for row, gated in rows}


def run_service_bench(
    workload: dict[str, object],
    *,
    root: Optional[Path] = None,
    budget_seconds: Optional[float] = None,
) -> dict[str, object]:
    """Run the four chaos phases against a real service root.

    ``root`` defaults to a throwaway temporary directory (removed
    afterwards); pass a path to keep the queue/cache state for inspection.
    The record mirrors the other bench shapes (``"strategies"`` keyed by
    the single ``"service"`` row) so
    :func:`scripts.check_bench_regression.find_regressions` gates all six
    trajectories with the same code.
    """
    from repro.service.cache import ArtifactCache, artifact_key
    from repro.service.queue import JobQueue
    from repro.service.workers import ServiceWorker

    keep_root = root is not None
    root = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="svc-bench-"))
    spec: dict[str, object] = {
        "workload": dict(workload),
        "stretch": float(workload["stretch"]),
        "chain": ["greedy-parallel", "approx-greedy", "theta", "yao", "mst"],
        "params": {},
    }
    if budget_seconds is not None:
        spec["budget_seconds"] = float(budget_seconds)
    key = artifact_key(
        spec["workload"], spec["chain"], spec["stretch"], spec["params"]
    )

    queue = JobQueue(root)
    cache = ArtifactCache(root / "cache")
    worker = ServiceWorker(queue, cache, "bench-worker")
    try:
        # Phase 1 — cold build.
        cold_job = queue.submit(spec)
        start = time.perf_counter()
        worker.run(max_jobs=1)
        cold_seconds = time.perf_counter() - start
        cold_job = queue.get(cold_job.job_id)
        cold_result = cold_job.result or {}
        original = json.loads(cache.payload_path(key).read_text(encoding="utf-8"))

        # Phase 2 — flip one payload byte, resubmit, require quarantine +
        # byte-identical rebuild.
        payload_path = cache.payload_path(key)
        data = bytearray(payload_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload_path.write_bytes(bytes(data))
        corrupt_job = queue.submit(spec)
        worker.run(max_jobs=1)
        corrupt_job = queue.get(corrupt_job.job_id)
        corrupt_result = corrupt_job.result or {}
        rebuilt = json.loads(cache.payload_path(key).read_text(encoding="utf-8"))
        rebuild_matches = rebuilt.get("edges") == original.get("edges")
        never_served_corrupt = (
            corrupt_job.state == "done"
            and not corrupt_result.get("cache_hit", True)
            and corrupt_result.get("rebuilt_after_corruption", False)
            and cache.counters["corrupt_quarantined"] >= 1
        )

        # Phase 3 — warm resubmit must be a verified cache hit.
        warm_job = queue.submit(spec)
        start = time.perf_counter()
        worker.run(max_jobs=1)
        warm_seconds = time.perf_counter() - start
        warm_job = queue.get(warm_job.job_id)
        warm_result = warm_job.result or {}
        warm_hit = warm_job.state == "done" and bool(warm_result.get("cache_hit"))

        # Phase 4 — a throwaway worker claims with a microscopic lease and
        # disappears; the real worker must reclaim and finish the job.
        reclaim_job = queue.submit(spec, lease_seconds=1e-9)
        queue.claim("dead-worker")
        worker.run(max_jobs=1)
        reclaim_job = queue.get(reclaim_job.job_id)
        reclaim_completed = (
            reclaim_job.state == "done" and queue.counters["lease_reclaims"] >= 1
        )
    finally:
        if not keep_root:
            shutil.rmtree(root, ignore_errors=True)

    record: dict[str, float] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "service_jobs_done": float(worker.counters["jobs_done"]),
        "service_jobs_failed": float(worker.counters["jobs_failed"]),
        "service_cache_hits": float(cache.counters["hits"]),
        "service_cache_misses": float(cache.counters["misses"]),
        "service_cache_puts": float(cache.counters["puts"]),
        "service_corrupt_quarantined": float(cache.counters["corrupt_quarantined"]),
        "service_corrupt_rebuilds": float(worker.counters["corrupt_rebuilds"]),
        "service_lease_reclaims": float(queue.counters["lease_reclaims"]),
        "service_poison_quarantined": float(queue.counters["quarantined"]),
        "service_spanner_edges": float(cold_result.get("spanner_edges", 0)),
    }
    result: dict[str, object] = {
        "workload": dict(workload),
        "strategies": {"service": record},
        "tier": cold_result.get("tier"),
        "degraded": bool(cold_result.get("degraded", False)),
        "warm_serve_ratio": warm_seconds / cold_seconds if cold_seconds > 0 else 0.0,
        "service_verified": cold_result.get("verified") is True,
        "rebuild_matches": bool(rebuild_matches),
        "never_served_corrupt": bool(never_served_corrupt),
        "warm_cache_hit": bool(warm_hit),
        "reclaim_completed": bool(reclaim_completed),
    }
    return result


SPEC = BenchSpec(
    name="service",
    description=(
        "Service chaos benchmark trajectory (artifact bit-flip quarantine "
        "+ byte-identical rebuild, warm cache serving, lease-expiry "
        "reclaim); see docs/SERVICE.md. "
        "Regenerate with `repro bench service`."
    ),
    label="phase_set",
    run=run_service_bench,
    kinds=(
        "bucketed-geometric",
        "uniform-euclidean",
        "clustered-euclidean",
        "grid-euclidean",
        "erdos-renyi",
        "geometric",
    ),
    presets=_build_presets(),
    # ``service_``-prefixed so they never collide with another trajectory's keys.
    counters=(
        "service_jobs_done",
        "service_jobs_failed",
        "service_cache_hits",
        "service_cache_misses",
        "service_cache_puts",
        "service_corrupt_quarantined",
        "service_corrupt_rebuilds",
        "service_lease_reclaims",
        "service_poison_quarantined",
        "service_spanner_edges",
    ),
    flags=(
        "service_verified",
        "rebuild_matches",
        "never_served_corrupt",
        "warm_cache_hit",
        "reclaim_completed",
    ),
    gate=Gate("gate_serve_ratio", "warm_serve_ratio", "max", 0.01),
)
