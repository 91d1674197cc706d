"""Lease/heartbeat and quarantine laws of the durable job queue.

Every test drives :class:`repro.service.queue.JobQueue` with an injected
fake clock — lease expiry is a statement about timestamps, not about how
long pytest slept.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.errors import (
    CorruptJobRecordError,
    JobNotFoundError,
    JobStateError,
    StaleLeaseError,
)
from repro.service.queue import DEFAULT_MAX_ATTEMPTS, Job, JobQueue


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    return JobQueue(tmp_path, clock=clock)


SPEC = {"workload": {"kind": "geometric", "n": 10}, "stretch": 1.5}


def test_submit_persists_a_pending_record(queue, tmp_path):
    job = queue.submit(SPEC)
    assert job.state == "pending"
    on_disk = json.loads((tmp_path / "jobs" / f"{job.job_id}.json").read_text())
    assert on_disk["state"] == "pending"
    assert on_disk["spec"] == SPEC
    assert on_disk["attempts"] == 0


def test_resubmitting_the_same_spec_yields_a_new_job(queue):
    first = queue.submit(SPEC)
    second = queue.submit(SPEC)
    assert first.job_id != second.job_id
    assert first.job_id.rsplit("-", 1)[0] == second.job_id.rsplit("-", 1)[0]


def test_claim_is_exclusive(queue):
    job = queue.submit(SPEC)
    claimed = queue.claim("worker-a")
    assert claimed is not None and claimed.job_id == job.job_id
    assert claimed.state == "running"
    assert claimed.attempts == 1
    # The lease is live, so a second claimer finds nothing.
    assert queue.claim("worker-b") is None


def test_complete_transitions_to_done(queue):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    done = queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    assert done.state == "done"
    assert done.result == {"tier": "mst"}
    assert done.worker_id is None
    # Terminal states are terminal.
    with pytest.raises(StaleLeaseError):
        queue.complete(job.job_id, "worker-a", {})


def test_fail_retries_until_the_attempt_cap_then_quarantines(queue):
    job = queue.submit(SPEC, max_attempts=2)
    queue.claim("worker-a")
    failed = queue.fail(job.job_id, "worker-a", "Traceback: boom 1")
    assert failed.state == "pending"
    assert failed.error == "Traceback: boom 1"
    queue.claim("worker-a")
    quarantined = queue.fail(job.job_id, "worker-a", "Traceback: boom 2")
    assert quarantined.state == "quarantined"
    assert quarantined.error == "Traceback: boom 2"
    assert queue.counters["quarantined"] == 1
    assert queue.claim("worker-a") is None


def test_expired_lease_is_reclaimed_with_attempt_bump(queue, clock):
    job = queue.submit(SPEC, lease_seconds=30.0)
    queue.claim("worker-a")
    clock.advance(10.0)
    assert queue.claim("worker-b") is None  # lease still live
    clock.advance(25.0)
    reclaimed = queue.claim("worker-b")
    assert reclaimed is not None and reclaimed.job_id == job.job_id
    assert reclaimed.worker_id == "worker-b"
    assert reclaimed.attempts == 2
    assert queue.counters["lease_reclaims"] == 1


def test_heartbeat_extends_the_lease(queue, clock):
    queue.submit(SPEC, lease_seconds=30.0)
    job = queue.claim("worker-a")
    clock.advance(25.0)
    queue.beat(job.job_id, "worker-a")
    clock.advance(25.0)
    # 50s since claim but only 25s since the beat: still owned.
    assert queue.claim("worker-b") is None


def test_losing_the_lease_makes_the_old_owner_stale(queue, clock):
    queue.submit(SPEC, lease_seconds=30.0)
    job = queue.claim("worker-a")
    clock.advance(31.0)
    queue.claim("worker-b")
    with pytest.raises(StaleLeaseError):
        queue.beat(job.job_id, "worker-a")
    with pytest.raises(StaleLeaseError):
        queue.complete(job.job_id, "worker-a", {})


def test_repeated_silent_worker_death_quarantines_the_poison_job(queue, clock):
    job = queue.submit(SPEC, lease_seconds=1.0)
    for attempt in range(DEFAULT_MAX_ATTEMPTS):
        claimed = queue.claim(f"worker-{attempt}")
        assert claimed is not None
        clock.advance(2.0)  # the worker dies without a word every time
    assert queue.claim("worker-last") is None
    record = queue.get(job.job_id)
    assert record.state == "quarantined"
    assert "worker death suspected" in (record.error or "")
    assert queue.counters["quarantined"] == 1
    assert queue.counters["lease_reclaims"] == DEFAULT_MAX_ATTEMPTS - 1


def test_a_claimer_killed_holding_the_lock_leaves_the_job_claimable(queue, tmp_path):
    """A claimer process dies while it holds the record's lock, just before
    its write: the lock dies with it and the record is as it was."""
    import repro.service.queue as queue_module

    job = queue.submit(SPEC)
    pid = os.fork()
    if pid == 0:  # the doomed claimer
        try:
            queue_module.atomic_write_json = lambda *args, **kwargs: os._exit(7)
            JobQueue(tmp_path).claim("doomed")
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 7
    record = queue.get(job.job_id)
    assert (record.state, record.attempts) == ("pending", 0)
    claimed = queue.claim("worker-a")
    assert (claimed.job_id, claimed.worker_id, claimed.attempts) == (job.job_id, "worker-a", 1)
    assert [path.name for path in (tmp_path / "jobs").iterdir()] == [f"{job.job_id}.json"]


def test_get_unknown_job_raises(queue):
    with pytest.raises(JobNotFoundError):
        queue.get("job-missing-0000")


def test_truncated_record_is_moved_aside_and_skipped(queue, tmp_path):
    bad = queue.submit(SPEC)
    good = queue.submit(SPEC)
    path = tmp_path / "jobs" / f"{bad.job_id}.json"
    path.write_bytes(path.read_bytes()[:20])
    claimed = queue.claim("worker-a")
    assert claimed is not None and claimed.job_id == good.job_id
    assert [job.job_id for job in queue.list_jobs()] == [good.job_id]
    assert queue.counters["corrupt_records"] == 1
    assert not path.exists()
    assert (tmp_path / "jobs" / f"{bad.job_id}.json.corrupt").exists()


def test_get_corrupt_record_raises_typed_error(queue, tmp_path):
    job = queue.submit(SPEC)
    (tmp_path / "jobs" / f"{job.job_id}.json").write_text("[1, 2]")
    with pytest.raises(CorruptJobRecordError):
        queue.get(job.job_id)
    with pytest.raises(JobNotFoundError):
        queue.get(job.job_id)
    assert queue.claim("worker-a") is None


def test_a_moved_aside_record_keeps_its_id_taken(queue, tmp_path):
    first = queue.submit(SPEC)
    second = queue.submit(SPEC)
    assert [first.job_id[-4:], second.job_id[-4:]] == ["0000", "0001"]
    (tmp_path / "jobs" / f"{first.job_id}.json").write_text("[1]")
    with pytest.raises(CorruptJobRecordError):
        queue.get(first.job_id)
    corrupt = tmp_path / "jobs" / f"{first.job_id}.json.corrupt"
    assert corrupt.read_text() == "[1]"
    third = queue.submit(SPEC)
    assert third.job_id == first.job_id[:-4] + "0002"
    assert corrupt.read_text() == "[1]"
    assert not (tmp_path / "jobs" / f"{first.job_id}.json").exists()


def test_illegal_transition_raises(queue, clock):
    job = queue.submit(SPEC)
    record = queue.get(job.job_id)
    with pytest.raises(JobStateError):
        queue._transition(record, "done", "cannot skip running")


def test_list_jobs_filters_by_state(queue):
    first = queue.submit(SPEC)
    queue.submit(SPEC)
    queue.claim("worker-a")
    assert [j.job_id for j in queue.list_jobs(state="running")] == [first.job_id]
    assert len(queue.list_jobs()) == 2


def test_records_survive_reopening_the_queue(queue, tmp_path, clock):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    reopened = JobQueue(tmp_path, clock=clock)
    record = reopened.get(job.job_id)
    assert record.state == "done"
    assert record.result == {"tier": "mst"}
    assert isinstance(record, Job)


def test_record_renamed_between_glob_and_read_is_skipped(queue, monkeypatch):
    """Another reader may move a record aside after list_jobs globbed it
    (or after get() resolved its path): the reader must not crash."""
    kept = queue.submit(SPEC)
    vanishing = queue.submit(SPEC)
    real_read = JobQueue._read

    def read_after_a_concurrent_claim(self, path, job_id):
        if job_id == vanishing.job_id:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        return real_read(self, path, job_id)

    monkeypatch.setattr(JobQueue, "_read", read_after_a_concurrent_claim)
    assert [job.job_id for job in queue.list_jobs()] == [kept.job_id]
    with pytest.raises(JobNotFoundError):
        queue.get(vanishing.job_id)
    assert queue.counters["corrupt_records"] == 0


def test_colliding_submissions_both_survive(tmp_path, clock, monkeypatch):
    """Two submitters that pick the same sequence number (each saw it free)
    must not overwrite each other: the second moves on to the next one."""
    first_queue = JobQueue(tmp_path, clock=clock)
    second_queue = JobQueue(tmp_path, clock=clock)
    # Every record reads as absent to the free-sequence scan, as it does to
    # a submitter that looked just before the other one committed.
    monkeypatch.setattr(type(tmp_path), "exists", lambda path: False)
    first = first_queue.submit(SPEC)
    second = second_queue.submit(SPEC, max_attempts=7)
    monkeypatch.undo()
    assert first.job_id.endswith("-0000")
    assert second.job_id == first.job_id[:-4] + "0001"
    assert first_queue.get(first.job_id).max_attempts == DEFAULT_MAX_ATTEMPTS
    assert first_queue.get(second.job_id).max_attempts == 7
    # No temp file is left behind by the losing link.
    assert sorted(path.name for path in (tmp_path / "jobs").iterdir()) == [
        f"{first.job_id}.json",
        f"{second.job_id}.json",
    ]


def test_concurrent_submissions_of_one_spec_all_survive(tmp_path):
    """More submitters than cores race for the same sequence numbers; every
    submission must keep its own record."""
    import sys
    import threading

    threads_n, per_thread = 6, 5
    ids: list[str] = []
    lock = threading.Lock()
    start = threading.Barrier(threads_n)

    def submitter() -> None:
        queue = JobQueue(tmp_path)
        start.wait(timeout=30)
        for _ in range(per_thread):
            job_id = queue.submit(SPEC).job_id
            with lock:
                ids.append(job_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=submitter) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(ids) == len(set(ids)) == threads_n * per_thread
    assert sorted(job.job_id for job in JobQueue(tmp_path).list_jobs()) == sorted(ids)


def test_submission_during_a_claim_does_not_take_the_claimed_id(tmp_path, clock, monkeypatch):
    """The record stays in place, locked, while a claim rewrites it: a
    submission arriving then sees the id taken and both jobs survive."""
    queue = JobQueue(tmp_path, clock=clock)
    first = queue.submit(SPEC)
    real_read = JobQueue._read
    submitted = []

    def read(self, path, record_id):
        if self is queue and not submitted:
            submitted.append(JobQueue(tmp_path, clock=clock).submit(SPEC))
        return real_read(self, path, record_id)

    monkeypatch.setattr(JobQueue, "_read", read)
    claimed = queue.claim("worker-a")
    monkeypatch.undo()
    assert claimed.job_id == first.job_id
    assert submitted[0].job_id != first.job_id
    assert [(job.job_id, job.state) for job in queue.list_jobs()] == [
        (first.job_id, "running"),
        (submitted[0].job_id, "pending"),
    ]


@pytest.mark.parametrize(
    "hook, owner",
    [("lock", "worker-b"), ("read-before", "worker-a"), ("read-after", "worker-a")],
    ids=["before-the-lock", "before-the-read", "after-the-read"],
)
def test_a_held_lock_makes_other_claimers_skip_the_record(
    tmp_path, clock, monkeypatch, hook, owner
):
    """B's claim() runs inside A's: after A opened the record but before it
    locked it (B claims the job; A then locks a replaced record, re-locks the
    new one and finds it running), or while A holds the lock, just before or
    after A reads it (B skips the record).  Either way the job has exactly
    one owner and no claimer raises."""
    import repro.service.queue as queue_module

    a, b = JobQueue(tmp_path, clock=clock), JobQueue(tmp_path, clock=clock)
    job_id = a.submit(SPEC).job_id
    path = tmp_path / "jobs" / f"{job_id}.json"
    b_claims = []

    def b_claims_once():
        if not b_claims:
            b_claims.append(None)  # B's own claim comes back through the hook
            b_claims[0] = b.claim("worker-b")

    if hook == "lock":
        real_flock = queue_module.fcntl.flock

        def flock(descriptor, operation):
            b_claims_once()
            return real_flock(descriptor, operation)

        monkeypatch.setattr(queue_module.fcntl, "flock", flock)
    real_read = JobQueue._read

    def read(self, record_path, record_id):
        if self is a:
            # A reads only the record its lock covers.  flock locks belong
            # to the open file description, so a second open in this
            # process conflicts with A's lock.
            assert queue_module._lock(path, wait=False) is None
        if self is a and hook == "read-before":
            b_claims_once()
        record = real_read(self, record_path, record_id)
        if self is a and hook == "read-after":
            b_claims_once()
        return record

    monkeypatch.setattr(JobQueue, "_read", read)
    a_claim = a.claim("worker-a")
    monkeypatch.undo()
    claims = {"worker-a": a_claim, "worker-b": b_claims[0]}
    assert [worker for worker, job in claims.items() if job is not None] == [owner]
    record = a.get(job_id)
    assert (record.state, record.worker_id, record.attempts) == ("running", owner, 1)
    loser = "worker-a" if owner == "worker-b" else "worker-b"
    with pytest.raises(StaleLeaseError):
        a.complete(job_id, loser, {})
    assert a.complete(job_id, owner, {"tier": "mst"}).state == "done"


def test_owner_finishing_during_a_reclaim_keeps_the_job_done(tmp_path, clock, monkeypatch):
    """A worker whose lease has lapsed finishes while another claims the job:
    whoever takes the record lock first wins, in either order.  The job has
    one owner, is done once, and is never revived."""
    import threading

    outcomes = {}
    for order in ("owner-first", "reclaim-first"):
        root = tmp_path / order
        queue, owner = JobQueue(root, clock=clock), JobQueue(root, clock=clock)
        job_id = queue.submit(SPEC, lease_seconds=1.0).job_id
        queue.claim("slow")
        clock.advance(2.0)
        real_read = JobQueue._read
        raced = []

        def complete_slow():
            try:
                raced.append(owner.complete(job_id, "slow", {"tier": "mst"}))
            except StaleLeaseError as error:
                raced.append(error)

        def read(self, path, record_id):
            record = real_read(self, path, record_id)
            if order == "owner-first" and self is owner and not raced:
                # The owner holds the lock: the reclaim passes the record by.
                raced.append(queue.claim("worker-b"))
            if order == "reclaim-first" and self is queue and not raced:
                # The reclaim holds the lock: the owner's complete waits for it.
                thread = threading.Thread(target=complete_slow)
                thread.start()
                thread.join(timeout=0.2)
                assert thread.is_alive() and not raced
                raced.append(thread)
            return record

        monkeypatch.setattr(JobQueue, "_read", read)
        if order == "owner-first":
            done = owner.complete(job_id, "slow", {"tier": "mst"})
            assert raced == [None]
        else:
            reclaimed = queue.claim("worker-b")
            raced[0].join(timeout=30)
            assert reclaimed.worker_id == "worker-b"
            assert isinstance(raced[1], StaleLeaseError)
            done = queue.complete(job_id, "worker-b", {"tier": "greedy"})
        monkeypatch.undo()
        assert done.state == "done"
        record = queue.get(job_id)
        assert record.history[-1].endswith(f"completed by {done.history[-1].split()[-1]}")
        assert sum("completed" in line for line in record.history) == 1
        assert not list((root / "jobs").glob("job-*"))
        assert queue.claim("worker-c") is None
        outcomes[order] = (record.result, record.attempts)
    assert outcomes == {"owner-first": ({"tier": "mst"}, 1), "reclaim-first": ({"tier": "greedy"}, 2)}


def test_concurrent_claimers_run_each_job_once(tmp_path):
    """More claimers than cores drain one queue; every job must be claimed
    exactly once (attempts 1) and no claimer may raise."""
    import sys
    import threading
    import time

    jobs_n, threads_n = 24, 6
    submitter = JobQueue(tmp_path)
    job_ids = sorted(submitter.submit(dict(SPEC, seed=seed)).job_id for seed in range(jobs_n))
    runs: list[str] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    start = threading.Barrier(threads_n)

    def claimer(worker_id: str) -> None:
        queue = JobQueue(tmp_path)
        start.wait(timeout=30)
        deadline = time.monotonic() + 30
        try:
            while time.monotonic() < deadline:
                job = queue.claim(worker_id)
                if job is None:
                    if len(queue.list_jobs(state="done")) == jobs_n:
                        return
                    continue
                with lock:
                    runs.append(job.job_id)
                queue.complete(job.job_id, worker_id, {"by": worker_id})
        except Exception as error:  # noqa: BLE001 - reported by the assertion below
            with lock:
                errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=claimer, args=(f"worker-{index}",))
            for index in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(runs) == job_ids
    records = submitter.list_jobs()
    assert [(job.job_id, job.state, job.attempts) for job in records] == [
        (job_id, "done", 1) for job_id in job_ids
    ]
    assert [path.name for path in (tmp_path / "jobs").iterdir()] == ["finished"]


def test_claim_writes_the_running_record_once(queue, tmp_path, monkeypatch):
    import repro.service.queue as queue_module

    job = queue.submit(SPEC)
    writes = []
    real_write = queue_module.atomic_write_json

    def counting_write(path, document, **kwargs):
        writes.append((Path(path).name, document["state"], kwargs.get("exclusive", False)))
        return real_write(path, document, **kwargs)

    monkeypatch.setattr(queue_module, "atomic_write_json", counting_write)
    assert queue.claim("worker-a") is not None
    assert writes == [(f"{job.job_id}.json", "running", False)]
    assert queue.get(job.job_id).state == "running"


@pytest.mark.parametrize(
    "error", [OSError(28, "No space left on device"), KeyboardInterrupt()], ids=["enospc", "ctrl-c"]
)
def test_a_claim_that_raises_before_its_link_loses_no_job(queue, tmp_path, monkeypatch, error):
    """A claim whose write of the running record raises (a full disk,
    Ctrl-C) before the record is replaced leaves the pending record as it
    was, unlocked, and the next claim takes it."""
    import repro.service.queue as queue_module

    job_id = queue.submit(SPEC).job_id
    path = tmp_path / "jobs" / f"{job_id}.json"
    before = path.read_bytes()

    def failing_write(path, document, **kwargs):
        raise error

    monkeypatch.setattr(queue_module, "atomic_write_json", failing_write)
    with pytest.raises(type(error)):
        queue.claim("worker-a")
    monkeypatch.undo()
    assert path.read_bytes() == before
    claimed = JobQueue(tmp_path).claim("worker-b")
    assert (claimed.job_id, claimed.state, claimed.attempts) == (job_id, "running", 1)
    assert [path.name for path in (tmp_path / "jobs").iterdir()] == [f"{job_id}.json"]


def test_terminal_records_move_to_finished(queue, tmp_path):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    assert not (tmp_path / "jobs" / f"{job.job_id}.json").exists()
    finished = tmp_path / "jobs" / "finished" / f"{job.job_id}.json"
    assert json.loads(finished.read_text())["state"] == "done"
    assert queue.get(job.job_id).state == "done"
    assert [record.job_id for record in queue.list_jobs(state="done")] == [job.job_id]


def test_crash_between_terminal_write_and_move_is_healed_by_the_next_claim(
    tmp_path, clock, monkeypatch
):
    queue = JobQueue(tmp_path, clock=clock)
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    finished_dir = tmp_path / "jobs" / "finished"
    real_replace = os.replace

    class Crash(Exception):
        pass

    def crash_before_the_move(src, dst):
        if Path(dst).parent == finished_dir:
            raise Crash
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_before_the_move)
    with pytest.raises(Crash):
        queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    monkeypatch.undo()
    left = tmp_path / "jobs" / f"{job.job_id}.json"
    assert json.loads(left.read_text())["state"] == "done"

    reopened = JobQueue(tmp_path, clock=clock)
    assert reopened.get(job.job_id).state == "done"
    assert reopened.claim("worker-b") is None
    assert reopened.counters["records_read"] == 1
    assert not left.exists()
    assert reopened.get(job.job_id).result == {"tier": "mst"}
    assert (finished_dir / f"{job.job_id}.json").exists()


def test_queue_in_the_single_directory_layout_reopens(tmp_path, clock):
    """Terminal records written straight into jobs/ (the layout before the
    finished/ directory) are read, listed and moved by the next claim."""
    queue = JobQueue(tmp_path, clock=clock)
    done = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.complete(done.job_id, "worker-a", {"tier": "mst"})
    pending = queue.submit(SPEC)
    finished_dir = tmp_path / "jobs" / "finished"
    os.replace(finished_dir / f"{done.job_id}.json", tmp_path / "jobs" / f"{done.job_id}.json")
    finished_dir.rmdir()

    reopened = JobQueue(tmp_path, clock=clock)
    assert reopened.get(done.job_id).state == "done"
    assert [(job.job_id, job.state) for job in reopened.list_jobs()] == [
        (done.job_id, "done"),
        (pending.job_id, "pending"),
    ]
    claimed = reopened.claim("worker-b")
    assert claimed is not None and claimed.job_id == pending.job_id
    assert (finished_dir / f"{done.job_id}.json").exists()
    assert reopened.get(done.job_id).result == {"tier": "mst"}


def test_submit_never_reuses_an_id_that_is_only_finished(queue, tmp_path):
    first = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.complete(first.job_id, "worker-a", {"tier": "mst"})
    assert not list((tmp_path / "jobs").glob("job-*.json"))
    second = queue.submit(SPEC)
    assert second.job_id != first.job_id
    assert queue.get(first.job_id).state == "done"
    assert [job.state for job in queue.list_jobs()] == ["done", "pending"]


def test_claim_reads_only_active_records(queue):
    for seed in range(200):
        job = queue.submit(dict(SPEC, seed=seed))
        queue.claim("worker-a")
        queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    pending = queue.submit(SPEC)
    queue.counters["records_read"] = 0
    claimed = queue.claim("worker-a")
    assert claimed is not None and claimed.job_id == pending.job_id
    assert queue.counters["records_read"] == 1
    assert len(queue.list_jobs(state="done")) == 200


def test_the_201st_submission_of_a_spec_probes_few_sequence_numbers(queue, tmp_path, monkeypatch):
    """Submit gallops to the first free sequence number and bisects, so the
    k-th submission of one spec looks at O(log k) numbers, not k."""
    ids = [queue.submit(SPEC).job_id for _ in range(200)]
    for job_id in ids[:100]:  # half of the ids are only in finished/
        queue.claim("worker-a")
        queue.complete(job_id, "worker-a", {"tier": "mst"})
    probed = set()
    real_exists = type(tmp_path).exists

    def exists(path):
        probed.add(path.name.partition(".")[0])  # the job id of any of its paths
        return real_exists(path)

    monkeypatch.setattr(type(tmp_path), "exists", exists)
    ids.append(queue.submit(SPEC).job_id)
    monkeypatch.undo()
    assert len(probed) <= 20
    prefix = ids[0][: -len("0000")]
    assert ids == [f"{prefix}{sequence:04d}" for sequence in range(201)]
    assert [job.job_id for job in queue.list_jobs()] == ids
