"""The supervised worker loop: claim → cache → degrade-build → verify → commit.

One :class:`ServiceWorker` drains the durable queue:

1. **Claim** a runnable job (pending, or an expired lease left by a dead
   worker — the queue's lock on the job record makes the claim exclusive).
2. **Cache first**: a malformed request (bad stretch, unknown tier params;
   :func:`repro.service.degrade.check_request`) fails the job before the
   lookup, so it is never served by a weaker tier.  The artifact key is
   the sha256 of the canonical request; a verified hit serves from the
   artifact's head, without building or parsing the edge list.  A hit
   that fails a checksum is quarantined by the cache and falls through
   to a rebuild — corrupted artifacts are never served.
3. **Build under the budget** with the degradation chain
   (:func:`repro.service.degrade.run_with_degradation`).
4. **Verify before commit**: the built spanner's edge-stretch guarantee is
   re-checked through the :class:`VerificationEngine` path whenever the
   serving tier carries a finite guarantee.  A spanner that fails the
   check raises :class:`~repro.errors.UnverifiedArtifactError` before the
   put, so it fails the job and is never cached or served.
5. **Commit**: artifact put (payload then manifest, both atomic), then the
   job transitions to ``done``.  Any exception is captured as a traceback
   on the job record (retry → quarantine per the queue's attempt law).

A cold job's queue record carries ``phase_seconds``, its wall time split
over :data:`COLD_PHASES`; the cached payload does not, as it cannot hold
its own put time.  A warm (cache-hit) result carries none.

Execution is at-least-once: a worker that dies after building but before
committing leaves an expired lease, and the re-run either hits the cache
(if the put committed) or rebuilds deterministically — the content address
makes the retry idempotent.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, Optional

from repro.core.spanner import Spanner
from repro.errors import ArtifactIntegrityError, StaleLeaseError, UnverifiedArtifactError
from repro.service.cache import ArtifactCache, artifact_key, canonical_request
from repro.service.degrade import DEFAULT_CHAIN, check_request, run_with_degradation
from repro.service.queue import Job, JobQueue

PAYLOAD_SCHEMA_VERSION = 2

#: A cold job's phases, in order: the cache lookup, building the instance,
#: the tier build (with the lease refresh after it), verification (with
#: the optional measured stretch) and the canonical edges plus the put.
COLD_PHASES = ("cache_get", "instance", "build", "verify", "put")


def build_workload_instance(workload: dict):
    """Instantiate a bench workload description for the builder registry.

    Accepts every workload family the bench layer defines: ``geometric``
    (overlay bench), ``bucketed-geometric`` (build bench), the Euclidean
    metric families and Erdős–Rényi graphs (oracle bench).  Metric families
    come back as their lazy :class:`MetricClosure` view, so the registry's
    metric builders and the streamed greedy path both apply.
    """
    kind = str(workload.get("kind", ""))
    if kind == "bucketed-geometric":
        from repro.experiments.build_bench import _build_instance

        graph, _ = _build_instance(workload)
        return graph
    from repro.experiments.overlay_bench import _build_instance as _overlay_instance

    graph, metric = _overlay_instance(workload)
    return graph


def canonical_spanner_edges(spanner: Spanner) -> list[list[object]]:
    """The spanner's edge set in the canonical exactly-comparable form.

    Same discipline as the build bench's cross-check: ``repr``-normalised
    endpoints sorted per edge and across edges, weights as floats — two
    spanners are byte-identical iff these lists are equal, and the form is
    JSON-safe for every vertex type the generators produce.  Each vertex is
    ``repr``-ed once and its string shared by all of its edges.
    """
    names = {vertex: repr(vertex) for vertex in spanner.subgraph.vertices()}
    edges = []
    for u, v, weight in spanner.subgraph.edges():
        a = names[u]
        b = names[v]
        edges.append([a, b, float(weight)] if a <= b else [b, a, float(weight)])
    edges.sort()
    return edges


class ServiceWorker:
    """One worker identity over a queue + cache pair."""

    def __init__(
        self,
        queue: JobQueue,
        cache: ArtifactCache,
        worker_id: str = "worker-0",
        *,
        verify: bool = True,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.queue = queue
        self.cache = cache
        self.worker_id = worker_id
        self.verify = verify
        self.monotonic = monotonic
        #: Per-worker event counters (the service bench sums them):
        self.counters: dict[str, int] = {
            "jobs_done": 0,
            "jobs_failed": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "corrupt_rebuilds": 0,
            "degraded_serves": 0,
            "deadline_overruns": 0,
            "leases_lost": 0,
        }

    # ------------------------------------------------------------------
    def run_once(self) -> Optional[Job]:
        """Claim and process one job; ``None`` when the queue has no work."""
        job = self.queue.claim(self.worker_id)
        if job is None:
            return None
        try:
            try:
                result = self.process(job)
            except Exception:  # noqa: BLE001 - every failure lands on the record
                record = self.queue.fail(job.job_id, self.worker_id, traceback.format_exc())
                self.counters["jobs_failed"] += 1
                return record
            record = self.queue.complete(job.job_id, self.worker_id, result)
            self.counters["jobs_done"] += 1
            return record
        except StaleLeaseError:
            # The lease lapsed and another worker reclaimed the job: it is
            # theirs now, and this worker drains on.
            self.counters["leases_lost"] += 1
            return self.queue.get(job.job_id)

    def run(self, *, max_jobs: Optional[int] = None) -> dict[str, int]:
        """Drain the queue (up to ``max_jobs``); returns the counters."""
        processed = 0
        while max_jobs is None or processed < max_jobs:
            job = self.run_once()
            if job is None:
                break
            processed += 1
        return dict(self.counters)

    # ------------------------------------------------------------------
    def process(self, job: Job) -> dict:
        """Serve one claimed job; returns the result record for ``done``.

        A hit's result is built from the artifact's verified head
        (``cache.get(key, head=True)``: ``tier``, ``degraded``, ``verified``,
        ``spanner_edges``); the payload bytes are hashed but never parsed.
        A miss, or a hit that fails a checksum, builds, verifies and puts.
        """
        spec = job.spec
        workload = dict(spec["workload"])
        chain = tuple(spec.get("chain") or DEFAULT_CHAIN)
        stretch = float(spec["stretch"])
        params = {
            tier: dict(tier_params)
            for tier, tier_params in (spec.get("params") or {}).items()
        }
        # Before the cache too: an artifact cached for a malformed request
        # (e.g. one an older build degraded to the MST) is never served.
        check_request(chain, stretch, params)
        key = artifact_key(workload, chain, stretch, params)
        request = canonical_request(workload, chain, stretch, params)

        clock = time.perf_counter
        marks = [clock()]
        corruption: Optional[str] = None
        try:
            head = self.cache.get(key, head=True)
        except ArtifactIntegrityError as error:
            # Quarantined by the cache; remember why and rebuild below.
            corruption = str(error)
            head = None
        marks.append(clock())
        if head is not None:
            self.counters["cache_hits"] += 1
            return {
                "artifact_key": key,
                "cache_hit": True,
                "tier": head["tier"],
                "degraded": bool(head.get("degraded", False)),
                "verified": head.get("verified"),
                "spanner_edges": head["spanner_edges"],
            }

        self.counters["cache_misses"] += 1
        if corruption is not None:
            self.counters["corrupt_rebuilds"] += 1
        instance = build_workload_instance(workload)
        marks.append(clock())
        outcome = run_with_degradation(
            instance,
            stretch,
            chain=chain,
            budget_seconds=spec.get("budget_seconds"),
            params_by_tier=params,
            clock=self.monotonic,
        )
        # The build may have outlived the lease; refresh it before the
        # (comparatively cheap) verify + commit tail.  If another worker
        # stole the job meanwhile, StaleLeaseError aborts it here (counted in
        # ``leases_lost``) — the new owner's rebuild is byte-identical.
        self.queue.beat(job.job_id, self.worker_id)
        marks.append(clock())
        if outcome.degraded:
            self.counters["degraded_serves"] += 1
        if outcome.deadline_exceeded:
            self.counters["deadline_overruns"] += 1

        spanner = outcome.spanner
        verified: Optional[bool] = None
        if self.verify and spanner.stretch is not None and spanner.stretch < float("inf"):
            from repro.spanners.verification import verify_spanner_edges

            verified = bool(
                verify_spanner_edges(spanner.subgraph, spanner.base, spanner.stretch)
            )
            if not verified:
                # Before the put: a spanner that breaks its guarantee is
                # never cached, so it can never be served.
                raise UnverifiedArtifactError(key, outcome.tier)
        measured = None
        if spec.get("measure_stretch"):
            measured = spanner.statistics(measure_stretch=True).measured_stretch
        marks.append(clock())

        edges = canonical_spanner_edges(spanner)
        payload = {
            "schema": PAYLOAD_SCHEMA_VERSION,
            "request": request,
            "tier": outcome.tier,
            "algorithm": spanner.algorithm,
            "degraded": outcome.degraded,
            "deadline_exceeded": outcome.deadline_exceeded,
            "outcomes": outcome.outcome_rows(),
            "stretch_bound": float(spanner.stretch),
            "verified": verified,
            "measured_stretch": measured,
            "edges": edges,
            "spanner_edges": len(edges),
            "metadata": {
                name: float(value)
                for name, value in spanner.metadata.items()
                if isinstance(value, (int, float))
            },
            "build_seconds": outcome.elapsed_seconds,
            "rebuilt_after_corruption": corruption,
        }
        self.cache.put(key, payload, request=request)
        marks.append(clock())
        return {
            "artifact_key": key,
            "cache_hit": False,
            "rebuilt_after_corruption": corruption is not None,
            "tier": outcome.tier,
            "degraded": outcome.degraded,
            "deadline_exceeded": outcome.deadline_exceeded,
            "verified": verified,
            "measured_stretch": measured,
            "spanner_edges": len(edges),
            "build_seconds": outcome.elapsed_seconds,
            "phase_seconds": {
                phase: end - start
                for phase, start, end in zip(COLD_PHASES, marks, marks[1:])
            },
        }


def run_service(
    root,
    *,
    worker_id: str = "worker-0",
    max_jobs: Optional[int] = None,
    verify: bool = True,
    clock: Callable[[], float] = time.time,
) -> dict[str, object]:
    """Convenience entry point: one worker draining the service at ``root``.

    Returns a summary merging the worker's counters with the queue's
    supervision counters and the cache's integrity counters — the shape the
    CLI prints and the service bench records.
    """
    from pathlib import Path

    root = Path(root)
    queue = JobQueue(root, clock=clock)
    cache = ArtifactCache(root / "cache", clock=clock)
    worker = ServiceWorker(queue, cache, worker_id, verify=verify)
    counters = worker.run(max_jobs=max_jobs)
    summary: dict[str, object] = {f"worker_{k}": v for k, v in counters.items()}
    summary.update({f"queue_{k}": v for k, v in queue.counters.items()})
    summary.update({f"cache_{k}": v for k, v in cache.counters.items()})
    return summary
