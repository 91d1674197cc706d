"""Exception hierarchy for the greedy-spanner reproduction library.

All exceptions raised intentionally by this package derive from
:class:`ReproError`, so callers can catch a single base class.  Each subclass
corresponds to a distinct failure mode of the substrates (graphs, metrics) or
of the spanner algorithms built on top of them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Base class for errors in the graph substrate."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by an operation is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class InvalidWeightError(GraphError, ValueError):
    """An edge weight is not a positive, finite number."""


class DisconnectedGraphError(GraphError):
    """An operation that requires a connected graph was given a disconnected one."""


class SelfLoopError(GraphError, ValueError):
    """An operation was given a self-loop, which this library does not support."""


class ImmutableGraphError(GraphError, TypeError):
    """A mutation was attempted on a read-only graph view (e.g. a metric closure)."""


class MetricError(ReproError):
    """Base class for errors in the metric-space substrate."""


class MetricAxiomError(MetricError, ValueError):
    """A purported metric violates one of the metric axioms."""


class EmptyMetricError(MetricError, ValueError):
    """A metric-space operation was given an empty point set."""


class SpannerError(ReproError):
    """Base class for errors in spanner construction or verification."""


class InvalidStretchError(SpannerError, ValueError):
    """A stretch parameter is out of the range accepted by an algorithm."""


class UnknownOracleError(SpannerError, ValueError):
    """A distance-oracle name is not a key of
    :data:`~repro.core.distance_oracle.ORACLE_FACTORIES`."""

    def __init__(self, name: object, valid: list[str]) -> None:
        super().__init__(f"unknown oracle {name!r}; valid names: {valid}")
        self.name = name
        self.valid = valid


class UnsupportedWorkloadError(SpannerError, TypeError):
    """A spanner builder was asked to span a workload kind it does not support.

    Raised by the builder registry (:mod:`repro.spanners.registry`) when e.g.
    a Euclidean-only construction (Θ-graph, Yao graph) is handed a general
    graph, or a graph-only construction (Baswana–Sen) is handed a metric.
    """

    def __init__(self, builder: str, workload: object, supported: str) -> None:
        super().__init__(
            f"spanner builder {builder!r} cannot span {workload!r}; "
            f"it supports {supported}"
        )
        self.builder = builder
        self.workload = workload
        self.supported = supported


class StretchViolationError(SpannerError):
    """A graph claimed to be a t-spanner violates the stretch guarantee.

    Attributes
    ----------
    u, v:
        The vertex pair witnessing the violation.
    spanner_distance, original_distance:
        The distances in the spanner and in the original graph/metric.
    stretch:
        The stretch bound that was violated.
    """

    def __init__(
        self,
        u: object,
        v: object,
        spanner_distance: float,
        original_distance: float,
        stretch: float,
    ) -> None:
        super().__init__(
            f"stretch violated for pair ({u!r}, {v!r}): "
            f"spanner distance {spanner_distance} > "
            f"{stretch} * {original_distance}"
        )
        self.u = u
        self.v = v
        self.spanner_distance = spanner_distance
        self.original_distance = original_distance
        self.stretch = stretch


class UnrepairableSpannerError(SpannerError, TypeError):
    """``Spanner.repair`` was asked to patch a spanner it cannot repair.

    Self-healing repair replays the greedy suffix of the canonical edge
    stream, so it is only defined for greedy-built spanners over a
    materialized graph base; metric closures (complete graphs) have no
    edges to fail and non-greedy constructions have no replay equivalence.
    """


class ExperimentError(ReproError):
    """Base class for errors raised by the experiment harness."""


class UnknownWorkloadError(ExperimentError, KeyError):
    """A workload name was not found in the workload registry, a bench
    workload key does not parse as a key of its bench, or a workload
    description names an unknown kind or lacks (or misnames) a field of
    its kind (:mod:`repro.workload_kinds`)."""


class BenchDocumentError(ExperimentError):
    """A ``BENCH_*.json`` document is unreadable: not JSON, not a JSON
    object, or without a ``runs`` mapping."""

    def __init__(self, path: object, reason: str) -> None:
        super().__init__(f"unreadable BENCH document {path}: {reason}")
        self.path = path


class ShardFailureError(ExperimentError):
    """A shard of a sharded parallel run failed twice (once in a worker,
    once on the in-process retry).

    Attributes
    ----------
    shard_index:
        Zero-based index of the failing shard in the shard sequence.
    shard_count:
        Total number of shards in the run.
    """

    def __init__(self, shard_index: int, shard_count: int, cause: object) -> None:
        super().__init__(
            f"shard {shard_index} of {shard_count} failed twice "
            f"(worker + in-process retry); last error: {cause!r}"
        )
        self.shard_index = shard_index
        self.shard_count = shard_count


class ServiceError(ReproError):
    """Base class for errors raised by the crash-safe job service layer."""


class JobNotFoundError(ServiceError, KeyError):
    """A job id referenced by an operation is not present in the queue."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"job {job_id!r} is not in the queue")
        self.job_id = job_id


class JobStateError(ServiceError, ValueError):
    """A job state transition that the lifecycle state machine forbids."""


class CorruptJobRecordError(ServiceError):
    """A job record on disk does not parse as a job.

    The queue moves the record aside to ``<name>.corrupt`` before raising,
    so one truncated record never breaks listing or claiming.
    """

    def __init__(self, job_id: str, reason: str) -> None:
        super().__init__(f"job record {job_id!r} is corrupt ({reason}); moved aside")
        self.job_id = job_id


class StaleLeaseError(ServiceError):
    """A worker acted on a job whose lease it no longer holds.

    Raised when a worker heartbeats or completes a job that has been
    re-claimed by another worker after its lease expired — the late writer
    must abandon the job, never overwrite the new owner's progress.
    """

    def __init__(self, job_id: str, worker_id: str, owner: object) -> None:
        super().__init__(
            f"worker {worker_id!r} no longer holds the lease on job "
            f"{job_id!r} (current owner: {owner!r})"
        )
        self.job_id = job_id
        self.worker_id = worker_id
        self.owner = owner


class ArtifactIntegrityError(ServiceError):
    """A cached artifact failed its checksum manifest on read.

    The cache quarantines the corrupted artifact before raising, so the
    caller's only correct move is to rebuild; the stored/actual digests and
    the ``part`` they cover (``payload`` or ``head``) are kept for the CLI
    to surface.
    """

    def __init__(self, key: str, expected: str, actual: str, part: str = "payload") -> None:
        super().__init__(
            f"artifact {key} failed integrity verification: manifest sha256 "
            f"{expected} != {part} sha256 {actual} (quarantined)"
        )
        self.key = key
        self.part = part
        self.expected = expected
        self.actual = actual


class InvalidTierParamsError(ServiceError, ValueError):
    """A job's per-tier builder params name a tier outside its fallback
    chain, or a param the tier's builder does not accept.

    Raised before any tier runs: a misspelt param would otherwise fail the
    preferred tier and be silently served by a weaker one.
    """


class TimeBudgetExceededError(ServiceError):
    """A job's time budget ran out before any fallback tier could serve it."""


class UnverifiedArtifactError(ServiceError):
    """A built spanner failed the worker's stretch verification.

    Raised before the artifact is cached, so the job fails instead of
    serving a spanner that breaks its stretch guarantee.
    """

    def __init__(self, key: str, tier: str) -> None:
        super().__init__(
            f"artifact {key} built by tier {tier!r} failed stretch "
            "verification; not cached"
        )
        self.key = key
        self.tier = tier
