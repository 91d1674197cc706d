"""Experiment harness: result records, timing helpers and the sharded executor.

Every experiment in :mod:`repro.experiments.experiments` returns an
:class:`ExperimentResult` — the ``repro experiment`` id (``E1``–``E9``), the
rows of the regenerated table, and free-text notes recording the paper claim
the rows should be compared against.  Benchmarks print the rendered table so
that ``pytest benchmarks/ --benchmark-only`` output doubles as the data of
the tables ``scripts/regenerate_experiments.py`` writes.

The sharded executor (:func:`run_sharded` with :func:`deterministic_shards`)
is the ``multiprocessing`` fan-out behind the batch verification engine and
``repro bench verify --workers``: work items are split into contiguous,
order-preserving shards, each shard is processed by one worker process, and
the per-shard results come back in shard order — so any reduction that is a
function of the *sequence* of per-item results (summed operation counters,
``fsum``-folded profile rows) is identical for one worker and for N, which
is what the determinism property tests pin down.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from repro.experiments.reporting import render_table

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ExperimentResult:
    """The output of one experiment run.

    Attributes
    ----------
    experiment_id:
        The ``repro experiment`` identifier, e.g. ``"E3"``.
    title:
        Human-readable experiment title.
    paper_claim:
        The statement from the paper this experiment regenerates.
    rows:
        The measured table rows.
    notes:
        Observations recorded during the run (e.g. which side "won").
    elapsed_seconds:
        Total wall-clock time of the run.
    peak_memory_bytes:
        Python-heap high-water mark of the run as measured by
        ``tracemalloc`` (None when the run was not memory-tracked).
    """

    experiment_id: str
    title: str
    paper_claim: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    peak_memory_bytes: Optional[int] = None

    def add_row(self, **values: object) -> None:
        """Append one table row."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Append a free-text observation."""
        self.notes.append(note)

    def render(self, *, precision: int = 3) -> str:
        """Render the result as a text report (title, claim, table, notes)."""
        parts = [
            f"[{self.experiment_id}] {self.title}",
            f"paper claim: {self.paper_claim}",
            "",
            render_table(self.rows, precision=precision) if self.rows else "(no rows)",
        ]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        if self.peak_memory_bytes is not None:
            parts.append(
                f"(elapsed: {self.elapsed_seconds:.2f}s, "
                f"peak memory: {self.peak_memory_bytes / 1_048_576:.1f} MiB)"
            )
        else:
            parts.append(f"(elapsed: {self.elapsed_seconds:.2f}s)")
        return "\n".join(parts)


#: Accumulator cells of the currently open contexts, innermost last.
#: ``tracemalloc`` keeps one global peak counter, so nested contexts must
#: fold the running segment's peak into every enclosing context before
#: resetting it (see :func:`traced_peak_memory`).  Cells (not plain ints)
#: so a context can recognise its own stack slot by identity.
_peak_stack: list[list[int]] = []


@contextmanager
def traced_peak_memory() -> Iterator[Callable[[], int]]:
    """Context manager measuring the Python-heap high-water mark of its body.

    Yields a zero-argument callable returning the peak (in bytes) observed
    since entry; usable both during and after the ``with`` block.  Nests
    correctly: ``tracemalloc`` has a single global peak counter, so on entry
    the running segment's peak is folded into every enclosing context before
    the counter is reset, and on exit the inner peak is folded back into the
    enclosing contexts (an inner high-water mark is by definition inside
    their windows).  Tracing is only stopped on exit if this context started
    it.  (Tracing costs several-fold wall clock on allocation-heavy code —
    measured 4–9× on the oracle benches — so traced timings are comparable
    with each other but not with untraced runs.)
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    else:
        segment = tracemalloc.get_traced_memory()[1]
        for cell in _peak_stack:
            if segment > cell[0]:
                cell[0] = segment
    tracemalloc.reset_peak()
    own_cell = [0]
    _peak_stack.append(own_cell)
    closed = [False]

    def read_peak() -> int:
        if not closed[0]:
            # Still open: folds recorded so far plus the live segment.
            live = (
                tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
            )
            return max(own_cell[0], live)
        return own_cell[0]

    try:
        yield read_peak
    finally:
        live = tracemalloc.get_traced_memory()[1]
        for i in range(len(_peak_stack) - 1, -1, -1):
            if _peak_stack[i] is own_cell:  # identity: sibling cells compare equal
                del _peak_stack[i]
                break
        own_cell[0] = max(own_cell[0], live)
        closed[0] = True
        for cell in _peak_stack:
            if own_cell[0] > cell[0]:
                cell[0] = own_cell[0]
        if started_here:
            tracemalloc.stop()


@contextmanager
def timed(
    result: ExperimentResult, *, measure_memory: bool = False
) -> Iterator[ExperimentResult]:
    """Context manager recording elapsed wall-clock time (and peak memory) on ``result``.

    With ``measure_memory`` the body runs under :func:`traced_peak_memory`
    and the high-water mark lands in ``result.peak_memory_bytes`` — the
    column the streaming-pipeline benches use to demonstrate their
    sub-quadratic memory claim.  It is opt-in because tracemalloc tracing
    costs several-fold wall clock on allocation-heavy runs, which would
    distort the timing columns of every experiment.
    """
    start = time.perf_counter()
    if measure_memory:
        try:
            with traced_peak_memory() as read_peak:
                yield result
        finally:
            result.peak_memory_bytes = read_peak()
            result.elapsed_seconds = time.perf_counter() - start
    else:
        try:
            yield result
        finally:
            result.elapsed_seconds = time.perf_counter() - start


# ---------------------------------------------------------------------------
# Sharded parallel executor
# ---------------------------------------------------------------------------
def available_workers() -> int:
    """Return the number of CPUs the scheduler will actually give us."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


def resolve_worker_count(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value: ``None``/``0`` → 1, negative → all CPUs."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return available_workers()
    return int(workers)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (Linux/macOS CPython).

    The executor ships shard *payloads* through the pool but relies on
    workers inheriting large read-only state (the verification engine's
    indexed graphs) from the parent by copy-on-write, which only ``fork``
    provides.  Without it :func:`run_sharded` degrades to inline execution —
    same results, no parallelism.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def deterministic_shards(items: Sequence[T], shard_count: int) -> list[list[T]]:
    """Split ``items`` into at most ``shard_count`` contiguous, non-empty shards.

    Shard boundaries depend only on ``len(items)`` and ``shard_count``
    (balanced sizes, differing by at most one), and concatenating the shards
    reproduces ``items`` exactly — the order-preservation half of the
    determinism contract.
    """
    items = list(items)
    if not items:
        return []
    shard_count = max(1, min(int(shard_count), len(items)))
    base, extra = divmod(len(items), shard_count)
    shards: list[list[T]] = []
    start = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        shards.append(items[start : start + size])
        start += size
    return shards


def _run_shard_guarded(task: Callable[[T], R], shard: T) -> tuple[str, object]:
    """Run one shard, capturing any exception as a value.

    Module-level (and wrapped via :func:`functools.partial`, which pickles by
    reference) so the fork pool can ship it; a worker that raises returns
    ``("error", repr(exc))`` instead of poisoning the whole ``Pool.map``.
    """
    try:
        return ("ok", task(shard))
    except Exception as exc:  # noqa: BLE001 - the parent re-raises after retry
        return ("error", repr(exc))


def run_sharded(
    task: Callable[[T], R],
    shards: Sequence[T],
    *,
    workers: Optional[int] = None,
) -> list[R]:
    """Apply ``task`` to every shard, fanning across worker processes.

    Results come back in shard order regardless of which worker finished
    first (``Pool.map`` semantics), so a reduction over the result sequence
    is independent of the worker count.  ``task`` must be a module-level
    function; with one worker (or when ``fork`` is unavailable, or from
    inside a daemonic worker) the shards run inline in the calling process —
    bit-identical results either way.

    Worker failures do not take the whole run down: a shard that raises in
    its worker (or whose worker dies outright) is retried once in-process;
    if the retry fails too, :class:`~repro.errors.ShardFailureError` names
    the shard.  Inline runs get the same retry-once semantics, so the
    failure contract is worker-count independent.
    """
    from repro.errors import ShardFailureError

    def run_inline(index: int, shard: T) -> R:
        try:
            return task(shard)
        except Exception as first:  # noqa: BLE001 - retried once, then named
            try:
                return task(shard)
            except Exception as second:  # noqa: BLE001
                raise ShardFailureError(index, len(shards), second) from first

    shards = list(shards)
    worker_count = min(resolve_worker_count(workers), len(shards))
    inline_only = (
        worker_count <= 1
        or not fork_available()
        # Nested pools are not allowed inside daemonic workers.
        or getattr(multiprocessing.current_process(), "daemon", False)
    )
    if inline_only:
        return [run_inline(index, shard) for index, shard in enumerate(shards)]
    guarded = functools.partial(_run_shard_guarded, task)
    context = multiprocessing.get_context("fork")
    try:
        with context.Pool(processes=worker_count) as pool:
            outcomes = pool.map(guarded, shards)
    except Exception:  # noqa: BLE001 - pool-level crash (e.g. a worker died)
        # The pool machinery itself failed; fall back to a full inline pass
        # (each shard still gets the retry-once contract).
        return [run_inline(index, shard) for index, shard in enumerate(shards)]
    results: list[R] = []
    for index, (status, value) in enumerate(outcomes):
        if status == "ok":
            results.append(value)  # type: ignore[arg-type]
        else:
            # Worker-side failure: one in-process retry, then give the shard
            # a name in the error instead of an opaque pool traceback.
            try:
                results.append(task(shards[index]))
            except Exception as exc:  # noqa: BLE001
                raise ShardFailureError(index, len(shards), exc) from None
    return results

