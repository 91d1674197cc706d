"""Durable job queue: crash-safe JSON records with lease-based claims.

Every job is one JSON file, rewritten *atomically*
(:func:`repro.graph.io.atomic_write_json`) on every state transition, so a
reader never observes a half-written record.  Active records live in
``<root>/jobs/``; a record reaching a terminal state is written there, then
renamed into ``<root>/jobs/finished/``, so a claim reads only active records
however long the history.  A terminal record a crash left in ``jobs/`` is
skipped and moved by the next claim.

The lifecycle state machine::

    pending ──claim──▶ running ──complete──▶ done
       ▲                  │
       │                  ├─fail (attempts < max)──▶ pending   (retried)
       │                  ├─fail (attempts = max)──▶ quarantined
       └──lease expired───┘        (poison job, traceback kept)

Claims and owners **lock the record itself**: a claimer opens
``<id>.json``, takes ``flock(LOCK_EX | LOCK_NB)`` on it, skips it if the
lock is held or the path now names a newer record, reads it and writes the
next record over it (one fsynced ``os.replace``) before unlocking.
``beat``, ``complete`` and ``fail`` take the same lock, blocking, around
their read, ownership check and write.  A lock dies with its process, so a
claimer that crashes or raises mid-claim leaves the record as it was.
Ownership is checked by worker id, so ids must be unique per root.

A worker that dies *after* claiming simply stops heartbeating: its lease
(``heartbeat + lease_seconds``) expires and the next claimer re-runs the
job, bumping ``attempts``.  A job that keeps killing its workers (or keeps
raising) is quarantined after ``max_attempts`` with the captured traceback,
so one poison job can never wedge the queue.

The wall clock is injectable (``clock=``) so the lease/heartbeat laws are
tested with a fake clock instead of sleeps.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

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


def _lock(path: Path, *, wait: bool) -> Optional[int]:
    """Open the record at ``path`` and ``flock`` it; the descriptor (close it
    to unlock), or ``None`` if the record is gone or, with ``wait=False``,
    locked by another claimer or owner.

    A writer replaces the record while holding the old one's lock, so a lock
    taken on an inode the path no longer names is retried on the new one.
    """
    while True:
        try:
            descriptor = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB))
            if os.stat(path).st_ino == os.fstat(descriptor).st_ino:
                return descriptor
        except (BlockingIOError, FileNotFoundError):
            os.close(descriptor)
            return None
        except BaseException:
            os.close(descriptor)
            raise
        os.close(descriptor)


def spec_digest(spec: dict) -> str:
    """Short stable digest of a job spec (canonical-JSON sha256 prefix)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class JobQueue:
    """The durable queue over ``<root>/jobs/`` and ``<root>/jobs/finished/``."""

    def __init__(
        self,
        root: str | Path,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.finished_dir = self.jobs_dir / "finished"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        #: Counters of supervision events (read by the service bench):
        #: ``lease_reclaims`` — expired leases re-claimed, ``quarantined`` —
        #: poison jobs fenced off, ``corrupt_records`` — unparseable records
        #: moved aside, ``records_read`` — records a claim scan parsed.
        self.counters: dict[str, int] = {
            "lease_reclaims": 0,
            "quarantined": 0,
            "corrupt_records": 0,
            "records_read": 0,
        }

    # ------------------------------------------------------------------
    # Record I/O
    # ------------------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _corrupt_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json.corrupt"

    def _write(self, job: Job) -> None:
        job.updated_at = self.clock()
        atomic_write_json(self._path(job.job_id), job.as_dict())
        if not _TRANSITIONS[job.state]:
            self._finish(job.job_id)

    def _finish(self, job_id: str) -> None:
        """Move a terminal record out of the active directory."""
        self.finished_dir.mkdir(exist_ok=True)
        try:
            os.replace(self._path(job_id), self.finished_dir / f"{job_id}.json")
        except FileNotFoundError:
            pass  # another reader moved it first

    def _read(self, path: Path, job_id: str) -> Job:
        """Parse the record at ``path`` (active or finished).

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
            try:
                os.replace(path, self._corrupt_path(job_id))
            except FileNotFoundError:
                pass  # another reader moved it aside first
            self.counters["corrupt_records"] += 1
            raise CorruptJobRecordError(job_id, str(error)) from error

    def get(self, job_id: str) -> Job:
        """Load one job record, active or finished.

        Raises :class:`JobNotFoundError` if absent and
        :class:`CorruptJobRecordError` if it does not parse.
        """
        # A record only ever moves from jobs/ to finished/: look in that order.
        for path in (self._path(job_id), self.finished_dir / f"{job_id}.json"):
            try:
                return self._read(path, job_id)
            except FileNotFoundError:
                continue
        raise JobNotFoundError(job_id)

    def list_jobs(self, state: Optional[str] = None) -> list[Job]:
        """All job records in job-id order, optionally filtered by state.

        Unparseable records are moved aside and skipped, and so are records
        another reader moved aside between the glob and the read.
        """
        jobs: dict[str, Job] = {}
        # Finished last, so a record that moved between the two globs is
        # kept in its later, terminal form.
        for directory in (self.jobs_dir, self.finished_dir):
            for path in directory.glob("job-*.json"):
                try:
                    jobs[path.stem] = self._read(path, path.stem)
                except (CorruptJobRecordError, FileNotFoundError):
                    continue
        return [jobs[key] for key in sorted(jobs) if state in (None, jobs[key].state)]

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

    def _taken(self, job_id: str) -> bool:
        """True if ``job_id`` has a record: active, finished or moved aside.

        A moved-aside ``.corrupt`` copy keeps its id taken, so a later
        submission never reuses it (and a later corruption of that id never
        overwrites the first copy).
        """
        return (
            self._path(job_id).exists()
            or (self.finished_dir / f"{job_id}.json").exists()
            or self._corrupt_path(job_id).exists()
        )

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
        served straight from the artifact cache).  The first free number is
        found by galloping then bisecting over the taken ones, and the
        record is linked into place exclusively, so of two submissions that
        pick one number the second moves on to the next instead of
        overwriting.
        """
        digest = spec_digest(spec)
        now = self.clock()
        job = Job(
            job_id="",
            spec=dict(spec),
            max_attempts=int(max_attempts),
            lease_seconds=float(lease_seconds),
            submitted_at=now,
            updated_at=now,
        )
        job.history.append(f"{now:.3f} submitted")
        name = f"job-{digest}-{{:04d}}".format
        # Numbers are taken densely from 0: gallop to a free one, then
        # bisect between it and the last taken one.
        taken, free = -1, 0
        while self._taken(name(free)):
            taken, free = free, 2 * free + 1
        while free - taken > 1:
            middle = (taken + free) // 2
            if self._taken(name(middle)):
                taken = middle
            else:
                free = middle
        while True:
            job.job_id = name(free)
            path = self._path(job.job_id)
            try:
                atomic_write_json(path, job.as_dict(), exclusive=True)
            except FileExistsError:
                free += 1  # a concurrent submit took this number first
                continue
            # A whole submit, claim and complete of this id can fit between
            # the look above and the link: then the id is finished, not free.
            if not (self.finished_dir / path.name).exists():
                return job
            path.unlink(missing_ok=True)
            free += 1

    def _claim(self, job: Job, worker_id: str, now: float) -> Optional[Job]:
        """Claim the locked, runnable ``job`` with one record write.

        ``None`` if it is quarantined instead (attempts past the cap).
        """
        reclaimed = job.state == "running"
        job.attempts += 1
        if job.attempts > job.max_attempts:
            job.error = job.error or (
                f"lease expired {job.attempts - 1} times with no "
                "completion (worker death suspected); no traceback — "
                "the worker died without reporting"
            )
            job.worker_id = job.heartbeat = None
            self._transition(job, "quarantined", f"quarantined after {job.attempts} attempts")
            self.counters["quarantined"] += 1
            return None
        owner = f"{worker_id} (attempt {job.attempts})"
        if reclaimed:
            note = f"lease of {job.worker_id} expired; reclaimed by {owner}"
        else:
            note = f"claimed by {owner}"
        job.worker_id, job.heartbeat = worker_id, now
        self._transition(job, "running", note)
        self.counters["lease_reclaims"] += reclaimed
        return job

    def claim(self, worker_id: str) -> Optional[Job]:
        """Claim the next runnable job for ``worker_id``, or return ``None``.

        Runnable means ``pending``, or ``running`` with an expired lease
        (the previous worker is presumed dead — SIGKILL leaves no
        traceback, only silence).  Claims scan the active records in job-id
        order so the oldest submission of a spec wins ties
        deterministically, and pass by a record another process has locked.
        A job whose attempts exceed ``max_attempts`` is quarantined instead
        of claimed — poison jobs are fenced off, not retried forever.
        """
        now = self.clock()
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            lock = _lock(path, wait=False)
            if lock is None:
                continue  # finished meanwhile, or another process holds it
            try:
                job = self._read(path, path.stem)
                self.counters["records_read"] += 1
                if not _TRANSITIONS[job.state]:
                    self._finish(job.job_id)  # a crash stopped it moving
                elif job.state == "pending" or job.lease_expired(now):
                    if self._claim(job, worker_id, now) is not None:
                        return job
            except (CorruptJobRecordError, FileNotFoundError):
                continue  # moved aside, or a finished record moved on
            finally:
                os.close(lock)
        return None

    @contextmanager
    def _owned(self, job_id: str, worker_id: str) -> Iterator[Job]:
        """Lock ``job_id``'s record and yield it if ``worker_id`` owns it;
        :class:`StaleLeaseError` if the lease was lost or the job finished."""
        lock = _lock(self._path(job_id), wait=True)
        try:
            job = self.get(job_id)
            if job.state != "running" or job.worker_id != worker_id:
                raise StaleLeaseError(job_id, worker_id, job.worker_id)
            yield job
        finally:
            if lock is not None:
                os.close(lock)

    def beat(self, job_id: str, worker_id: str) -> Job:
        """Refresh the lease heartbeat; :class:`StaleLeaseError` if lost."""
        with self._owned(job_id, worker_id) as job:
            job.heartbeat = self.clock()
            self._write(job)
        return job

    def complete(self, job_id: str, worker_id: str, result: dict) -> Job:
        """Transition the owned job to ``done`` with its result record."""
        with self._owned(job_id, worker_id) as job:
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
        with self._owned(job_id, worker_id) as job:
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
