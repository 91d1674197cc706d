"""Durable job queue: crash-safe JSON records with lease-based claims.

Every job is one JSON file under ``<root>/jobs/``, rewritten *atomically*
(write-temp-then-``os.replace``, :func:`repro.graph.io.atomic_write_json`)
on every state transition — a reader never observes a half-written record,
and a worker crash mid-transition leaves the previous complete record in
place.

The lifecycle state machine::

    pending ──claim──▶ running ──complete──▶ done
       ▲                  │
       │                  ├─fail (attempts < max)──▶ pending   (retried)
       │                  ├─fail (attempts = max)──▶ quarantined
       └──lease expired───┘        (poison job, traceback kept)

Claims are **exclusive by rename**: a claimer renames ``<id>.json`` to a
worker-tagged claim file before rewriting it, and ``os.rename`` hands the
file to exactly one renamer — the loser gets ``FileNotFoundError`` and moves
on.  A worker that dies *after* claiming simply stops heartbeating: its
lease (``heartbeat + lease_seconds``) expires and the next claimer re-runs
the job, bumping ``attempts``.  A job that keeps killing its workers (or
keeps raising) is quarantined after ``max_attempts`` with the captured
traceback, so one poison job can never wedge the queue.

The wall clock is injectable (``clock=``) so the lease/heartbeat laws are
tested with a fake clock instead of sleeps.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.errors import (
    CorruptJobRecordError,
    JobNotFoundError,
    JobStateError,
    StaleLeaseError,
)
from repro.graph.io import atomic_write_json

SCHEMA_VERSION = 1

#: The legal lifecycle states.
JOB_STATES = ("pending", "running", "done", "failed", "quarantined")

#: Legal transitions of the lifecycle state machine (from -> allowed to).
_TRANSITIONS: dict[str, tuple[str, ...]] = {
    "pending": ("running", "quarantined"),
    "running": ("done", "pending", "failed", "quarantined", "running"),
    "done": (),
    "failed": (),
    "quarantined": (),
}

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_MAX_ATTEMPTS = 3


@dataclass
class Job:
    """One durable job record (the exact JSON shape on disk).

    Attributes
    ----------
    job_id:
        Stable identifier, ``job-<spec digest>-<sequence>``.
    spec:
        What to build: ``workload`` (a bench workload description dict),
        ``chain`` (fallback builder chain), ``stretch``, ``params`` and
        ``budget_seconds`` (the time budget; ``None`` = unbounded).
    state:
        One of :data:`JOB_STATES`.
    attempts:
        Number of times the job has been claimed (including reclaims of
        expired leases).
    max_attempts:
        Quarantine threshold: a job claimed more than this many times
        without completing is poison.
    lease_seconds / worker_id / heartbeat:
        The lease law: while ``state == "running"``, the claim is owned by
        ``worker_id`` until ``heartbeat + lease_seconds``; past that any
        claimer may steal the job.
    error:
        The captured traceback of the last failure (kept through
        quarantine so ``repro service status`` can surface it).
    result:
        The completion record (artifact key, tier served, cache hit, ...).
    """

    job_id: str
    spec: dict
    state: str = "pending"
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    worker_id: Optional[str] = None
    heartbeat: Optional[float] = None
    submitted_at: float = 0.0
    updated_at: float = 0.0
    error: Optional[str] = None
    result: Optional[dict] = None
    history: list[str] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    def lease_expired(self, now: float) -> bool:
        """True when the running claim's lease has lapsed at time ``now``."""
        if self.state != "running" or self.heartbeat is None:
            return False
        return now > self.heartbeat + self.lease_seconds

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def spec_digest(spec: dict) -> str:
    """Short stable digest of a job spec (canonical-JSON sha256 prefix)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class JobQueue:
    """The durable queue over ``<root>/jobs/*.json`` records."""

    def __init__(
        self,
        root: str | Path,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        #: Counters of supervision events (read by the service bench):
        #: ``lease_reclaims`` — expired leases re-claimed, ``quarantined`` —
        #: poison jobs fenced off, ``corrupt_records`` — unparseable records
        #: moved aside.
        self.counters: dict[str, int] = {
            "lease_reclaims": 0,
            "quarantined": 0,
            "corrupt_records": 0,
        }

    # ------------------------------------------------------------------
    # Record I/O
    # ------------------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _write(self, job: Job, *, exclusive: bool = False) -> None:
        job.updated_at = self.clock()
        atomic_write_json(self._path(job.job_id), job.as_dict(), exclusive=exclusive)

    def _read(self, path: Path, job_id: str) -> Job:
        """Parse the record at ``path`` (the job's record or its claim file).

        A record that does not parse as a job is moved aside to
        ``<job_id>.json.corrupt`` — outside the ``job-*.json`` glob — and
        :class:`CorruptJobRecordError` is raised, so the bad record is
        reported once and never read again.
        """
        try:
            data = json.loads(path.read_bytes().decode("utf-8"))
            if not isinstance(data, dict):
                raise TypeError(f"expected a JSON object, got {type(data).__name__}")
            return Job.from_dict(data)
        except (ValueError, TypeError) as error:
            import os

            try:
                os.replace(path, self._path(job_id).with_suffix(".json.corrupt"))
            except FileNotFoundError:
                pass  # another reader moved it aside first
            self.counters["corrupt_records"] += 1
            raise CorruptJobRecordError(job_id, str(error)) from error

    def get(self, job_id: str) -> Job:
        """Load one job record.

        Raises :class:`JobNotFoundError` if absent and
        :class:`CorruptJobRecordError` if it does not parse.
        """
        path = self._path(job_id)
        try:
            return self._read(path, job_id)
        except FileNotFoundError:
            # Absent, or renamed by a concurrent claim() after we looked.
            raise JobNotFoundError(job_id) from None

    def list_jobs(self, state: Optional[str] = None) -> list[Job]:
        """All job records in job-id order, optionally filtered by state.

        Unparseable records are moved aside and skipped, and so are records
        a concurrent :meth:`claim` renamed between the glob and the read.
        """
        jobs = []
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                job = self._read(path, path.stem)
            except (CorruptJobRecordError, FileNotFoundError):
                continue
            if state is None or job.state == state:
                jobs.append(job)
        return jobs

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def _transition(self, job: Job, new_state: str, note: str) -> None:
        if new_state not in JOB_STATES:
            raise JobStateError(f"unknown job state {new_state!r}")
        if new_state not in _TRANSITIONS[job.state]:
            raise JobStateError(
                f"illegal transition {job.state!r} -> {new_state!r} for job "
                f"{job.job_id!r}"
            )
        job.state = new_state
        job.history.append(f"{self.clock():.3f} {note}")
        self._write(job)

    def submit(
        self,
        spec: dict,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> Job:
        """Persist a new pending job; returns the durable record.

        The job id embeds the spec digest plus a sequence number, so
        resubmitting an identical spec yields a *new* job (which may then be
        served straight from the artifact cache).  The record is linked into
        place exclusively, so of two submissions that pick one sequence
        number the second moves on to the next instead of overwriting.
        """
        digest = spec_digest(spec)
        now = self.clock()
        job = Job(
            job_id="",
            spec=dict(spec),
            max_attempts=int(max_attempts),
            lease_seconds=float(lease_seconds),
            submitted_at=now,
        )
        job.history.append(f"{now:.3f} submitted")
        sequence = 0
        while True:
            job.job_id = f"job-{digest}-{sequence:04d}"
            # An id in use shows its record or, mid-claim, its claim file
            # (a claim renames the record aside and writes it back before
            # deleting the claim file), so look in that order; a claim that
            # ends between the two looks makes the exclusive link fail.
            path = self._path(job.job_id)
            if not path.exists() and not any(self.jobs_dir.glob(f"{path.name}.claim-*")):
                try:
                    self._write(job, exclusive=True)
                    return job
                except FileExistsError:
                    pass  # a concurrent submit took this sequence first
            sequence += 1

    def _try_exclusive(self, job_id: str, worker_id: str) -> Optional[Job]:
        """Win the claim race by renaming the record aside, or return None.

        ``os.rename`` gives the file to exactly one renamer; the record is
        rewritten under its canonical name by the subsequent transition, and
        a crash *between* rename and rewrite is healed by
        :meth:`_recover_orphaned_claims` (the claim file carries the full
        record).
        """
        import os

        path = self._path(job_id)
        claim = path.with_name(path.name + f".claim-{worker_id}")
        try:
            os.rename(path, claim)
        except FileNotFoundError:
            return None
        try:
            job = self._read(claim, job_id)
        except CorruptJobRecordError:
            return None
        # Restore the canonical record immediately (atomic); the claim file
        # is only the exclusivity token and is removed now that we won.
        atomic_write_json(path, job.as_dict())
        os.unlink(claim)
        return job

    def _recover_orphaned_claims(self) -> None:
        """Restore records stranded mid-claim by a claimer crash."""
        import os

        for claim in self.jobs_dir.glob("job-*.json.claim-*"):
            canonical = claim.with_name(claim.name.split(".claim-")[0])
            if not canonical.exists():
                try:
                    os.rename(claim, canonical)
                except FileNotFoundError:
                    pass
            else:  # canonical restored already; the token is stale
                try:
                    os.unlink(claim)
                except FileNotFoundError:
                    pass

    def claim(self, worker_id: str) -> Optional[Job]:
        """Claim the next runnable job for ``worker_id``, or return ``None``.

        Runnable means ``pending``, or ``running`` with an expired lease
        (the previous worker is presumed dead — SIGKILL leaves no
        traceback, only silence).  Claims scan in job-id order so the
        oldest submission of a spec wins ties deterministically.  A job
        whose attempts exceed ``max_attempts`` is quarantined instead of
        claimed — poison jobs are fenced off, not retried forever.
        """
        self._recover_orphaned_claims()
        now = self.clock()
        for candidate in self.list_jobs():
            reclaimed = candidate.lease_expired(now)
            if candidate.state != "pending" and not reclaimed:
                continue
            job = self._try_exclusive(candidate.job_id, worker_id)
            if job is None:
                continue  # another claimer won the rename race
            # Re-check under the exclusive claim: the record may have moved.
            reclaimed = job.lease_expired(now)
            if job.state != "pending" and not reclaimed:
                continue
            job.attempts += 1
            if job.attempts > job.max_attempts:
                job.error = job.error or (
                    f"lease expired {job.attempts - 1} times with no "
                    "completion (worker death suspected); no traceback — "
                    "the worker died without reporting"
                )
                job.worker_id = None
                job.heartbeat = None
                self.counters["quarantined"] += 1
                self._transition(
                    job, "quarantined", f"quarantined after {job.attempts} attempts"
                )
                continue
            if reclaimed:
                self.counters["lease_reclaims"] += 1
                note = (
                    f"lease of {job.worker_id} expired; reclaimed by {worker_id} "
                    f"(attempt {job.attempts})"
                )
            else:
                note = f"claimed by {worker_id} (attempt {job.attempts})"
            job.worker_id = worker_id
            job.heartbeat = now
            self._transition(job, "running", note)
            return job
        return None

    def _owned(self, job_id: str, worker_id: str) -> Job:
        job = self.get(job_id)
        if job.state != "running" or job.worker_id != worker_id:
            raise StaleLeaseError(job_id, worker_id, job.worker_id)
        return job

    def beat(self, job_id: str, worker_id: str) -> Job:
        """Refresh the lease heartbeat; :class:`StaleLeaseError` if lost."""
        job = self._owned(job_id, worker_id)
        job.heartbeat = self.clock()
        self._write(job)
        return job

    def complete(self, job_id: str, worker_id: str, result: dict) -> Job:
        """Transition the owned job to ``done`` with its result record."""
        job = self._owned(job_id, worker_id)
        job.result = dict(result)
        job.worker_id = None
        job.heartbeat = None
        self._transition(job, "done", f"completed by {worker_id}")
        return job

    def fail(self, job_id: str, worker_id: str, traceback_text: str) -> Job:
        """Record a failure: retry (→ pending) or quarantine at the cap.

        The traceback is stored verbatim on the record either way, so the
        CLI surfaces the real exception even for jobs that later succeed on
        retry.
        """
        job = self._owned(job_id, worker_id)
        job.error = traceback_text
        job.worker_id = None
        job.heartbeat = None
        if job.attempts >= job.max_attempts:
            self.counters["quarantined"] += 1
            self._transition(
                job,
                "quarantined",
                f"failed on attempt {job.attempts}/{job.max_attempts}: quarantined",
            )
        else:
            self._transition(
                job,
                "pending",
                f"failed on attempt {job.attempts}/{job.max_attempts}: will retry",
            )
        return job
