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

Claims are **exclusive by rename** and write once: a claimer renames
``<id>.json`` to a claim token named after its worker id (unique per root),
locks it (``flock``), reads it, links the next record into place
exclusively (``os.link``) and unlinks the token.  A vanished token or an
existing record means another claimer or the owner got there first.  Each
claim first sweeps back unlocked tokens (their claimer died or raised) by
``os.link``, never over a record.

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
from dataclasses import asdict, dataclass, field
from itertools import chain
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


def _lock(token: Path) -> int:
    """Open and lock a claim token; returns the descriptor (close to unlock).

    :class:`BlockingIOError` if it is held, :class:`FileNotFoundError` if a
    sweep put it back before the lock was taken.
    """
    descriptor = os.open(token, os.O_RDONLY)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
        if os.stat(token).st_ino != os.fstat(descriptor).st_ino:
            raise FileNotFoundError(token)
    except BaseException:
        os.close(descriptor)
        raise
    return descriptor


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

    def _write(self, job: Job, *, exclusive: bool = False) -> None:
        job.updated_at = self.clock()
        path = self._path(job.job_id)
        atomic_write_json(path, job.as_dict(), exclusive=exclusive)
        if exclusive and self._revived(path):
            raise FileExistsError(path)  # the job has finished: its id is taken
        if not _TRANSITIONS[job.state]:
            self._finish(job.job_id)

    def _revived(self, path: Path) -> bool:
        """Unlink a record just linked into ``jobs/`` if its job has finished
        (its owner can finish it while a claim holds the record as a token)."""
        if not (self.finished_dir / path.name).exists():
            return False
        path.unlink(missing_ok=True)
        return True

    def _finish(self, job_id: str) -> None:
        """Move a terminal record out of the active directory."""
        self.finished_dir.mkdir(exist_ok=True)
        try:
            os.replace(self._path(job_id), self.finished_dir / f"{job_id}.json")
        except FileNotFoundError:
            pass  # moved already, or held by a claim token: a later claim moves it

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
            try:
                os.replace(path, self._path(job_id).with_suffix(".json.corrupt"))
            except FileNotFoundError:
                pass  # another reader moved it aside first
            self.counters["corrupt_records"] += 1
            raise CorruptJobRecordError(job_id, str(error)) from error

    def get(self, job_id: str) -> Job:
        """Load one job record: active, held by a claim token, or finished.

        Raises :class:`JobNotFoundError` if absent and
        :class:`CorruptJobRecordError` if it does not parse.
        """
        # A record moves to a claim token and back, and at the end to
        # finished/: look in that order.  Tokens are globbed only if the
        # active record is missing.
        active = self._path(job_id)
        tokens = self.jobs_dir.glob(f"{active.name}.claim-*")
        for path in chain([active], tokens, [active, self.finished_dir / active.name]):
            try:
                return self._read(path, job_id)
            except FileNotFoundError:
                continue
        raise JobNotFoundError(job_id)

    def list_jobs(self, state: Optional[str] = None) -> list[Job]:
        """All job records in job-id order, optionally filtered by state.

        Unparseable records are moved aside and skipped, and so are records
        a concurrent :meth:`claim` renamed between the glob and the read.
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
            # An id in use shows its active record, mid-claim its claim token,
            # and once terminal its finished record, in that order over its
            # life, so look in that order; a claim that ends between two
            # looks makes the exclusive link fail.
            path = self._path(job.job_id)
            if (
                not path.exists()
                and not any(self.jobs_dir.glob(f"{path.name}.claim-*"))
                and not (self.finished_dir / path.name).exists()
            ):
                try:
                    self._write(job, exclusive=True)
                    return job
                except FileExistsError:
                    pass  # a concurrent submit took this sequence first
            sequence += 1

    def _try_exclusive(self, job_id: str, worker_id: str, now: float) -> Optional[Job]:
        """Claim ``job_id`` with one record write, or return ``None``.

        ``None`` means another claimer won or the job was quarantined.  Any
        other error leaves the token unlocked in place: the record is not
        lost, the next sweep puts it back.
        """
        path = self._path(job_id)
        token = path.with_name(f"{path.name}.claim-{worker_id}")
        try:
            os.rename(path, token)
            lock = _lock(token)
        except (FileNotFoundError, BlockingIOError):
            return None  # another claimer renamed it first, or a sweep took it back
        try:
            job = self._read(token, job_id)
            reclaimed = job.lease_expired(now)
            if job.state != "pending" and not reclaimed:
                self._put_back(token)  # it moved on after the scan
                return None
            job.attempts += 1
            if job.attempts > job.max_attempts:
                job.error = job.error or (
                    f"lease expired {job.attempts - 1} times with no "
                    "completion (worker death suspected); no traceback — "
                    "the worker died without reporting"
                )
                job.worker_id = job.heartbeat = None
                state, note = "quarantined", f"quarantined after {job.attempts} attempts"
            else:
                owner = f"{worker_id} (attempt {job.attempts})"
                if reclaimed:
                    note = f"lease of {job.worker_id} expired; reclaimed by {owner}"
                else:
                    note = f"claimed by {owner}"
                job.worker_id, job.heartbeat, state = worker_id, now, "running"
            job.state = state  # pending or running to either is legal
            job.history.append(f"{self.clock():.3f} {note}")
            self._write(job, exclusive=True)
            token.unlink()
        except CorruptJobRecordError:
            return None  # moved aside
        except FileExistsError:
            token.unlink()  # its owner wrote a newer record meanwhile
            return None
        finally:
            os.close(lock)
        if state == "quarantined":
            self.counters["quarantined"] += 1
            return None
        if reclaimed:
            self.counters["lease_reclaims"] += 1
        return job

    def _put_back(self, token: Path) -> None:
        """Link a locked claim token back under its record's name, then drop it.

        The link never replaces a record: one there is newer, written by the
        job's owner after it read the record from the token.
        """
        path = token.with_name(token.name.split(".claim-")[0])
        try:
            os.link(token, path)
            self._revived(path)
        except FileExistsError:
            pass
        token.unlink(missing_ok=True)

    def _recover_orphaned_claims(self) -> None:
        """Put back the records of unlocked tokens (a claimer died or raised);
        a live claimer's lock makes the sweep pass its token by."""
        for token in self.jobs_dir.glob("job-*.json.claim-*"):
            try:
                lock = _lock(token)
            except (FileNotFoundError, BlockingIOError):
                continue  # its claim has ended, or its claimer is alive
            try:
                self._put_back(token)
            finally:
                os.close(lock)

    def claim(self, worker_id: str) -> Optional[Job]:
        """Claim the next runnable job for ``worker_id``, or return ``None``.

        Runnable means ``pending``, or ``running`` with an expired lease
        (the previous worker is presumed dead — SIGKILL leaves no
        traceback, only silence).  Claims scan the active records in job-id
        order so the oldest submission of a spec wins ties
        deterministically.  A job whose attempts exceed ``max_attempts`` is
        quarantined instead of claimed — poison jobs are fenced off, not
        retried forever.
        """
        self._recover_orphaned_claims()
        now = self.clock()
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                candidate = self._read(path, path.stem)
            except (CorruptJobRecordError, FileNotFoundError):
                continue  # moved aside, or taken by a concurrent claim
            self.counters["records_read"] += 1
            if not _TRANSITIONS[candidate.state]:
                self._finish(candidate.job_id)  # a crash stopped it moving
            elif candidate.state == "pending" or candidate.lease_expired(now):
                job = self._try_exclusive(candidate.job_id, worker_id, now)
                if job is not None:
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
