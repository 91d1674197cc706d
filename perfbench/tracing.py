"""Spans around the library's public entry points, installed only for a traced run.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.installed`
replaces the module and class attributes the workloads reach (queue, cache,
worker, degradation chain, builders, verification, metric stream, lightness,
query engine) with wrappers that record one :class:`Span` per call while
:attr:`Tracer.enabled` is set, and restores the originals on exit.  A traced
run alternates enabled and disabled cycles, so the disabled wrappers cost one
attribute check per call and the ``trace.overhead`` comparison stays fair.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    """One timed call: ``parent`` is an index into the span list, or -1."""

    name: str
    op: int
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The benchmark is single-threaded, so children of one span never overlap
    and their covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


class Tracer:
    """An in-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        span = Span(name, self._op, self._stack[-1] if self._stack else -1, perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int, kind: str) -> Iterator[None]:
        """The root span of one timed operation; its children share ``op_id``."""
        if not self.enabled:
            yield
            return
        self._op = op_id
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._op = -1

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[Span, object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every enabled call of ``owner.attr``.

        ``after(span, result)`` runs once the span has ended, so reading the
        result's counters is not charged to the layer.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(span, result)
            return result

        self._patch(owner, attr, traced)

    def timed_stream(self, stream: Iterator) -> Iterator:
        """Yield from ``stream``, charging the time inside its ``next`` to the stream."""
        advance = stream.__next__
        busy = 0.0
        pairs = 0
        try:
            while True:
                start = perf_counter()
                try:
                    item = advance()
                except StopIteration:
                    busy += perf_counter() - start
                    return
                busy += perf_counter() - start
                pairs += 1
                yield item
        finally:
            self.counts["metric.stream.next_s"] += busy
            self.counts["metric.stream.pairs"] += pairs

    def _install(self) -> None:
        import repro.core.greedy as greedy
        import repro.core.parallel_greedy as parallel_greedy
        import repro.service.workers as workers
        import repro.spanners.verification as verification
        from repro.core.query_engine import QueryEngine
        from repro.core.spanner import Spanner
        from repro.service.cache import ArtifactCache
        from repro.service.queue import JobQueue

        def metadata(span: Span, spanner) -> None:
            span.attrs.update(spanner.metadata)

        def records(span: Span, jobs) -> None:
            span.attrs["records"] = len(jobs)

        def failed(span: Span, job) -> None:
            span.attrs["retry"] = job.state == "pending"

        def put(span: Span, manifest) -> None:
            span.attrs["payload_bytes"] = manifest["size_bytes"]

        def degraded(span: Span, outcome) -> None:
            span.attrs["degraded"] = bool(outcome.degraded)

        for attr in ("submit", "claim", "beat", "complete", "fail", "list_jobs"):
            after = {"list_jobs": records, "fail": failed}.get(attr)
            self.wrap(JobQueue, attr, f"service.queue.{attr}", after)
        self.wrap(ArtifactCache, "get", "service.cache.get")
        self.wrap(ArtifactCache, "put", "service.cache.put", put)
        self.wrap(workers.ServiceWorker, "process", "service.workers.process")
        self.wrap(workers, "build_workload_instance", "service.workers.instance")
        self.wrap(workers, "run_with_degradation", "service.degrade", degraded)
        self.wrap(parallel_greedy, "parallel_greedy_spanner", "core.parallel_greedy", metadata)
        self.wrap(greedy, "greedy_spanner_of_metric", "core.greedy", metadata)
        self.wrap(Spanner, "lightness", "core.spanner.lightness")
        self.wrap(QueryEngine, "run_queries", "core.query_engine")

        tracer = self
        plain_stream = greedy.sorted_pair_stream

        def sorted_pair_stream(*args, **kwargs):
            stream = plain_stream(*args, **kwargs)
            return tracer.timed_stream(stream) if tracer.enabled else stream

        self._patch(greedy, "sorted_pair_stream", sorted_pair_stream)

        plain_verify = verification.verify_spanner_edges

        def verify_spanner_edges(*args, **kwargs):
            # The public call returns only the verdict; the detailed twin takes
            # the same arguments and also hands back the operation counts.
            if not tracer.enabled:
                return plain_verify(*args, **kwargs)
            with tracer.span("spanners.verification") as span:
                report = verification.verify_spanner_edges_detailed(*args, **kwargs)
            span.attrs.update(report.counters())
            return report.ok

        self._patch(verification, "verify_spanner_edges", verify_spanner_edges)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced entry point for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def write(self, path: Path) -> None:
        """Write every recorded span, with its self time, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            dict(asdict(span), self_s=own)
            for span, own in zip(self.spans, self_times(self.spans))
        ]
        path.write_text(
            json.dumps({"spans": rows, "counts": dict(self.counts)}), encoding="utf-8"
        )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: ``name -> (unit, better)`` for every per-layer metric, in report order.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "service.queue.submit_s": ("s", "lower"),
    "service.queue.claim_s": ("s", "lower"),
    "service.queue.commit_s": ("s", "lower"),
    "service.queue.records_scanned": ("count", "lower"),
    "service.queue.retries": ("count", "lower"),
    "service.cache.get_s": ("s", "lower"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.cache.put_s": ("s", "lower"),
    "service.cache.payload_bytes": ("bytes", "lower"),
    "service.cache.corrupt": ("count", "lower"),
    "service.workers.self_s": ("s", "lower"),
    "service.workers.instance_s": ("s", "lower"),
    "service.degrade.self_s": ("s", "lower"),
    "service.degrade.degraded": ("count", "lower"),
    "core.parallel_greedy.build_s": ("s", "lower"),
    "core.parallel_greedy.filter_settles": ("count", "lower"),
    "core.parallel_greedy.replay_settles": ("count", "lower"),
    "core.parallel_greedy.coverage_hits": ("count", "higher"),
    "core.parallel_greedy.candidate_ratio": ("ratio", "lower"),
    "core.parallel_greedy.replay_yield": ("ratio", "higher"),
    "spanners.verification.verify_s": ("s", "lower"),
    "spanners.verification.settles": ("count", "lower"),
    "spanners.verification.sources": ("count", "lower"),
    "spanners.verification.edges_checked": ("count", "lower"),
    "metric.stream.next_s": ("s", "lower"),
    "metric.stream.pairs": ("count", "lower"),
    "core.greedy.loop_s": ("s", "lower"),
    "core.greedy.edges_added": ("count", "lower"),
    "core.distance_oracle.queries": ("count", "lower"),
    "core.distance_oracle.settles": ("count", "lower"),
    "core.distance_oracle.hit_ratio": ("ratio", "higher"),
    "core.spanner.lightness_s": ("s", "lower"),
    "core.query_engine.run_s": ("s", "lower"),
    "core.query_engine.sources": ("count", "lower"),
    "core.query_engine.settles": ("count", "lower"),
    "core.query_engine.queries_per_source": ("queries/source", "higher"),
    "core.query_engine.settles_per_query": ("settles/query", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, deltas: dict[str, float], cycles: int) -> dict[str, float]:
    """Fold the traced cycles' spans and counters into per-cycle layer metrics.

    Busy seconds and counts are averaged over the ``cycles`` traced cycles,
    so a commit that completes more cycles in the same run reads the same.
    ``deltas`` holds the growth of the program's own cumulative counters
    (queue, cache, query engine) over those cycles.  Layers a workload does
    not reach read 0.
    """
    busy: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    attrs: defaultdict[str, float] = defaultdict(float)
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        busy[span.name] += span.duration
        own[span.name] += self_s
        for key, value in span.attrs.items():
            attrs[f"{span.name}:{key}"] += float(value)
    per = 1.0 / max(1, cycles)
    counts = tracer.counts
    candidates = attrs["core.parallel_greedy:build_candidate_edges"]
    queries = deltas.get("engine_queries", 0.0)
    sources = deltas.get("engine_sources", 0.0)
    settles = deltas.get("engine_settles", 0.0)
    return {
        "service.queue.submit_s": busy["service.queue.submit"] * per,
        "service.queue.claim_s": busy["service.queue.claim"] * per,
        "service.queue.commit_s": (busy["service.queue.beat"] + busy["service.queue.complete"]) * per,
        "service.queue.records_scanned": attrs["service.queue.list_jobs:records"] * per,
        "service.queue.retries": (deltas.get("lease_reclaims", 0.0) + attrs["service.queue.fail:retry"]) * per,
        "service.cache.get_s": busy["service.cache.get"] * per,
        "service.cache.hit_ratio": _ratio(deltas.get("hits", 0.0), deltas.get("hits", 0.0) + deltas.get("misses", 0.0)),
        "service.cache.put_s": busy["service.cache.put"] * per,
        "service.cache.payload_bytes": attrs["service.cache.put:payload_bytes"] * per,
        "service.cache.corrupt": deltas.get("corrupt_quarantined", 0.0) * per,
        "service.workers.self_s": own["service.workers.process"] * per,
        "service.workers.instance_s": busy["service.workers.instance"] * per,
        "service.degrade.self_s": own["service.degrade"] * per,
        "service.degrade.degraded": attrs["service.degrade:degraded"] * per,
        "core.parallel_greedy.build_s": busy["core.parallel_greedy"] * per,
        "core.parallel_greedy.filter_settles": attrs["core.parallel_greedy:build_filter_settles"] * per,
        "core.parallel_greedy.replay_settles": attrs["core.parallel_greedy:build_replay_settles"] * per,
        "core.parallel_greedy.coverage_hits": attrs["core.parallel_greedy:build_cache_hits"] * per,
        "core.parallel_greedy.candidate_ratio": _ratio(candidates, attrs["core.parallel_greedy:edges_examined"]),
        "core.parallel_greedy.replay_yield": _ratio(attrs["core.parallel_greedy:edges_added"], candidates),
        "spanners.verification.verify_s": busy["spanners.verification"] * per,
        "spanners.verification.settles": attrs["spanners.verification:verify_settles"] * per,
        "spanners.verification.sources": attrs["spanners.verification:verify_sources"] * per,
        "spanners.verification.edges_checked": attrs["spanners.verification:verify_edges_checked"] * per,
        "metric.stream.next_s": counts["metric.stream.next_s"] * per,
        "metric.stream.pairs": counts["metric.stream.pairs"] * per,
        "core.greedy.loop_s": (busy["core.greedy"] - counts["metric.stream.next_s"]) * per,
        "core.greedy.edges_added": attrs["core.greedy:edges_added"] * per,
        "core.distance_oracle.queries": attrs["core.greedy:distance_queries"] * per,
        "core.distance_oracle.settles": attrs["core.greedy:dijkstra_settles"] * per,
        "core.distance_oracle.hit_ratio": _ratio(attrs["core.greedy:cache_hits"], attrs["core.greedy:distance_queries"]),
        "core.spanner.lightness_s": busy["core.spanner.lightness"] * per,
        "core.query_engine.run_s": busy["core.query_engine"] * per,
        "core.query_engine.sources": sources * per,
        "core.query_engine.settles": settles * per,
        "core.query_engine.queries_per_source": _ratio(queries, sources),
        "core.query_engine.settles_per_query": _ratio(settles, queries),
    }
