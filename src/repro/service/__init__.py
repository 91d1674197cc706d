"""Crash-safe spanner job service: durable queue, artifact cache, degradation.

The ROADMAP's "millions of users" north star needs more than a fast builder:
it needs the *system* to survive the builder's host misbehaving.  This
package is the long-lived job layer over the spanner registry and the
sharded executor, in four pieces that all survive induced failure
(docs/SERVICE.md has the laws; ``repro bench service`` measures them):

* :mod:`repro.service.queue` — a durable job queue: jobs persisted as JSON
  records with atomic write-temp-then-``os.replace`` state transitions,
  lease-based claims with heartbeat timestamps (a dead worker's lease
  expires and the job is re-run) and poison-job quarantine after
  ``max_attempts`` with the captured traceback.
* :mod:`repro.service.cache` — a content-addressed artifact cache: built
  spanners keyed by sha256 of (workload, builder chain, stretch, params),
  every artifact stored with a checksum manifest and verified on read;
  a corrupted artifact is quarantined and rebuilt, never served.
* :mod:`repro.service.degrade` — deadline-driven graceful degradation:
  each job carries a time budget and a declared fallback chain
  (greedy → approx-greedy → theta → yao → mst); the runner walks
  the chain with per-stage deadline checks and records which tier served.
* :mod:`repro.service.workers` — the supervised worker loop tying the three
  together, plus the spec → workload-instance dispatcher.
"""

from repro.service.cache import ArtifactCache, artifact_key
from repro.service.degrade import (
    DEFAULT_CHAIN,
    DegradationResult,
    TierOutcome,
    run_with_degradation,
)
from repro.service.queue import Job, JobQueue
from repro.service.workers import ServiceWorker, build_workload_instance, run_service

__all__ = [
    "ArtifactCache",
    "artifact_key",
    "DEFAULT_CHAIN",
    "DegradationResult",
    "TierOutcome",
    "run_with_degradation",
    "Job",
    "JobQueue",
    "ServiceWorker",
    "build_workload_instance",
    "run_service",
]
