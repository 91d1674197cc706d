"""End-to-end laws of the supervised worker loop.

The headline tests are the chaos ones: a worker process SIGKILLed after
claiming (its expired lease must be reclaimed and the job still completes),
and a bit-flipped artifact that must be quarantined and rebuilt
byte-identical — never served.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles.service import canonical_spanner_edges as seed_canonical_spanner_edges
from repro.core.spanner import Spanner
from repro.errors import GraphError, UnknownWorkloadError
from repro.experiments.harness import fork_available
from repro.graph.weighted_graph import WeightedGraph
from repro.service.cache import ArtifactCache, artifact_key
from repro.service.queue import JobQueue
from repro.service.workers import (
    COLD_PHASES,
    ServiceWorker,
    build_workload_instance,
    canonical_spanner_edges,
    run_service,
)
from repro.spanners.registry import build_spanner
from repro.workload_kinds import workload, workload_key

SPEC = {
    "workload": {"kind": "geometric", "n": 80, "radius": 0.25, "seed": 3, "stretch": 1.5},
    "stretch": 1.5,
}


def spec_key(spec=SPEC) -> str:
    return artifact_key(
        spec["workload"],
        tuple(spec.get("chain") or ("greedy", "approx-greedy", "theta", "yao", "mst")),
        spec["stretch"],
        spec.get("params") or {},
    )


@pytest.fixture()
def service(tmp_path):
    queue = JobQueue(tmp_path)
    cache = ArtifactCache(tmp_path / "cache")
    return queue, cache, ServiceWorker(queue, cache, "worker-test")


class Named:
    """A vertex that is distinct by identity but shares its ``repr``."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return self.label


#: Mixed vertex types, including two distinct vertices with one ``repr``.
VERTICES = [0, 1, 2, 10, "a", "b", "v", (0, 1), (1, 0), ("a", 2), Named("v"), Named("v")]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(VERTICES) - 1),
            st.integers(0, len(VERTICES) - 1),
            st.sampled_from([0.5, 1.0, 1.0, 2.25, 3.0]),
        ),
        max_size=30,
    )
)
def test_canonical_spanner_edges_equals_the_per_edge_repr_form(triples):
    graph = WeightedGraph()
    for vertex in VERTICES:
        graph.add_vertex(vertex)
    for i, j, weight in triples:
        if i != j:
            graph.add_edge(VERTICES[i], VERTICES[j], weight)
    spanner = Spanner(base=graph, subgraph=graph, stretch=1.0)
    assert canonical_spanner_edges(spanner) == seed_canonical_spanner_edges(spanner)


def test_build_workload_instance_dispatches_all_kinds():
    geometric = build_workload_instance(SPEC["workload"])
    assert geometric.number_of_vertices == 80
    bucketed = build_workload_instance(
        {"kind": "bucketed-geometric", "n": 64, "degree": 8.0, "seed": 3, "stretch": 2.0}
    )
    assert bucketed.number_of_vertices == 64
    metric = build_workload_instance(
        {"kind": "uniform-euclidean", "n": 16, "dim": 2, "seed": 3, "stretch": 2.0}
    )
    from repro.metric.closure import MetricClosure

    assert isinstance(metric, MetricClosure)


@pytest.mark.parametrize(
    "n, degree",
    [(10, float("nan")), (10, -4.0), (-3, 8.0)],
    ids=["nan-degree", "negative-degree", "negative-n"],
)
def test_bad_bucketed_spec_raises_graph_error(n, degree):
    with pytest.raises(GraphError):
        build_workload_instance(
            {"kind": "bucketed-geometric", "n": n, "degree": degree, "seed": 3, "stretch": 2.0}
        )


#: A misspelt kind, which once fell through to an Erdős–Rényi graph.
MISSPELT = {"kind": "bucketed-geomtric", "n": 30, "p": 0.2, "seed": 1}


def test_misspelt_kind_raises_instead_of_building_a_graph():
    with pytest.raises(UnknownWorkloadError, match="bucketed-geomtric"):
        build_workload_instance(MISSPELT)
    with pytest.raises(UnknownWorkloadError, match="bucketed-geomtric"):
        workload_key(MISSPELT)


def test_missing_or_unknown_field_raises_the_typed_error_naming_it():
    spec = {"kind": "geometric", "n": 30, "seed": 1, "stretch": 1.5}
    with pytest.raises(UnknownWorkloadError, match="geometric workload needs radius"):
        build_workload_instance(spec)
    with pytest.raises(UnknownWorkloadError, match="radius"):
        workload_key(spec)
    with pytest.raises(UnknownWorkloadError, match="no field radious"):
        workload("geometric", radious=0.1)


def test_job_with_a_misspelt_kind_ends_without_an_artifact(service):
    queue, cache, worker = service
    bad = {"workload": dict(MISSPELT, stretch=2.0), "stretch": 2.0}
    job = queue.submit(bad, max_attempts=1)
    worker.run()
    record = queue.get(job.job_id)
    assert record.state == "quarantined"
    assert "UnknownWorkloadError" in (record.error or "")
    assert cache.get(spec_key(bad)) is None
    assert cache.counters["puts"] == 0


def test_cold_build_completes_verified_and_cached(service):
    queue, cache, worker = service
    job = queue.submit(SPEC)
    assert worker.run(max_jobs=5) == dict(worker.counters)
    record = queue.get(job.job_id)
    assert record.state == "done"
    assert record.result["tier"] == "greedy"
    assert record.result["cache_hit"] is False
    assert record.result["verified"] is True
    assert cache.get(spec_key()) is not None
    assert worker.counters["jobs_done"] == 1


def test_cold_result_records_phase_seconds(service):
    queue, cache, worker = service
    job = queue.submit(SPEC)
    start = time.perf_counter()
    worker.run_once()
    wall = time.perf_counter() - start
    phases = queue.get(job.job_id).result["phase_seconds"]
    assert set(phases) == set(COLD_PHASES)
    assert all(seconds >= 0.0 for seconds in phases.values())
    assert sum(phases.values()) <= wall
    assert "phase_seconds" not in cache.get(spec_key())
    warm = queue.submit(SPEC)
    worker.run_once()
    assert "phase_seconds" not in queue.get(warm.job_id).result


def test_warm_resubmit_serves_from_cache(service):
    queue, cache, worker = service
    queue.submit(SPEC)
    worker.run()
    warm = queue.submit(SPEC)
    worker.run()
    record = queue.get(warm.job_id)
    assert record.state == "done"
    assert record.result["cache_hit"] is True
    assert worker.counters["cache_hits"] == 1
    # A cache hit never rebuilds: exactly one put ever happened.
    assert cache.counters["puts"] == 1


def test_default_chain_serves_serial_greedy_and_the_band_chain_the_same_edges(service):
    """The default chain's top tier is the serial greedy builder; naming the
    band builder explicitly serves byte-identical edges."""
    queue, cache, worker = service
    spec = {
        "workload": {
            "kind": "bucketed-geometric", "n": 300, "degree": 16.0, "seed": 5, "stretch": 2.0,
        },
        "stretch": 2.0,
    }
    band = dict(spec, chain=["greedy-parallel", "mst"])
    default_job = queue.submit(spec)
    band_job = queue.submit(band)
    worker.run()
    expected = canonical_spanner_edges(
        build_spanner("greedy", build_workload_instance(spec["workload"]), 2.0)
    )
    for job, tier, key in (
        (default_job, "greedy", spec_key(spec)),
        (band_job, "greedy-parallel", spec_key(band)),
    ):
        record = queue.get(job.job_id)
        assert record.state == "done"
        assert record.result["tier"] == tier
        assert record.result["cache_hit"] is False
        assert record.result["verified"] is True
        assert json.dumps(cache.get(key)["edges"]) == json.dumps(expected)


def test_bit_flip_forces_quarantine_and_byte_identical_rebuild(service):
    queue, cache, worker = service
    queue.submit(SPEC)
    worker.run()
    original = json.loads(cache.payload_path(spec_key()).read_text())

    payload_path = cache.payload_path(spec_key())
    data = bytearray(payload_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    payload_path.write_bytes(bytes(data))

    job = queue.submit(SPEC)
    worker.run()
    record = queue.get(job.job_id)
    assert record.state == "done"
    assert record.result["cache_hit"] is False
    assert record.result["rebuilt_after_corruption"] is True
    assert worker.counters["corrupt_rebuilds"] == 1
    assert cache.counters["corrupt_quarantined"] == 1
    assert cache.quarantined(), "the corrupted copy must be fenced, not deleted"
    # Deterministic construction: the rebuild is byte-identical.
    rebuilt = json.loads(cache.payload_path(spec_key()).read_text())
    assert rebuilt["edges"] == original["edges"]
    assert rebuilt["verified"] is True


def test_truncated_manifest_forces_quarantine_and_rebuild(service):
    queue, cache, worker = service
    queue.submit(SPEC)
    worker.run()
    original = json.loads(cache.payload_path(spec_key()).read_text())

    manifest_path = cache.manifest_path(spec_key())
    data = manifest_path.read_bytes()
    manifest_path.write_bytes(data[: len(data) // 2])

    job = queue.submit(SPEC)
    worker.run()
    record = queue.get(job.job_id)
    assert record.state == "done"
    assert record.result["cache_hit"] is False
    assert record.result["rebuilt_after_corruption"] is True
    assert worker.counters["corrupt_rebuilds"] == 1
    assert cache.counters["corrupt_quarantined"] == 1
    assert cache.get(spec_key())["edges"] == original["edges"]


def test_failing_job_stores_the_traceback_and_quarantines(service):
    queue, _, worker = service
    bad = dict(SPEC)
    bad["chain"] = ["theta"]  # unsupported for a graph workload
    job = queue.submit(bad, max_attempts=2)
    worker.run()
    record = queue.get(job.job_id)
    assert record.state == "quarantined"
    assert "TimeBudgetExceededError" in (record.error or "")
    assert worker.counters["jobs_failed"] == 2
    assert queue.counters["quarantined"] == 1


def test_unverified_spanner_fails_the_job_and_is_never_served(service, monkeypatch):
    """A tier whose spanner misses one edge (so, by Lemma 3, breaks the
    stretch) fails the job before the put: nothing is cached or served."""
    import repro.service.degrade as degrade

    real_get_builder = degrade.get_builder

    class DropOneEdge:
        def __init__(self, builder):
            self.builder = builder

        def __getattr__(self, name):
            return getattr(self.builder, name)

        def build(self, *args, **kwargs):
            spanner = self.builder.build(*args, **kwargs)
            u, v, _ = next(iter(spanner.subgraph.edges()))
            spanner.subgraph.remove_edge(u, v)
            return spanner

    monkeypatch.setattr(degrade, "get_builder", lambda name: DropOneEdge(real_get_builder(name)))
    queue, cache, worker = service
    job = queue.submit(SPEC, max_attempts=2)

    worker.run_once()
    record = queue.get(job.job_id)
    assert record.state == "pending"  # failed once, will retry
    assert "UnverifiedArtifactError" in (record.error or "")
    assert f"artifact {spec_key()}" in record.error
    assert "tier 'greedy'" in record.error
    assert cache.get(spec_key()) is None

    worker.run_once()  # the retry rebuilds, fails again and is quarantined
    record = queue.get(job.job_id)
    assert record.state == "quarantined"
    assert record.result is None
    assert cache.get(spec_key()) is None
    assert cache.counters["puts"] == 0
    assert worker.counters["jobs_done"] == 0
    assert worker.counters["jobs_failed"] == 2


@pytest.mark.parametrize("params", [{"wrokers": 2}, {"workers": 2}])
def test_bad_tier_params_fail_the_job_instead_of_degrading(service, params):
    """A greedy-parallel param the builder does not take must not make the
    top tier error out and the MST silently serve the job — not even from
    an MST artifact already cached under the request's key."""
    queue, cache, worker = service
    bad = dict(SPEC)
    bad["chain"] = ["greedy-parallel", "mst"]
    bad["params"] = {"greedy-parallel": params}
    cache.put(spec_key(bad), {"tier": "mst", "degraded": True, "edges": []})
    job = queue.submit(bad, max_attempts=2)
    worker.run()
    record = queue.get(job.job_id)
    assert record.state == "quarantined"
    assert record.result is None
    assert "InvalidTierParamsError" in (record.error or "")
    assert worker.counters["jobs_done"] == 0


def test_budgeted_job_degrades_but_completes(service):
    queue, _, worker = service
    spec = dict(SPEC)
    spec["budget_seconds"] = 0.0
    job = queue.submit(spec)
    worker.run()
    record = queue.get(job.job_id)
    assert record.state == "done"
    assert record.result["tier"] == "mst"
    assert record.result["degraded"] is True
    assert worker.counters["degraded_serves"] == 1


def _claim_and_die(root: str) -> None:
    queue = JobQueue(root)
    claimed = queue.claim("doomed-worker")
    assert claimed is not None
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
def test_sigkilled_claimers_job_is_reclaimed_and_completed(tmp_path):
    """A worker SIGKILLed after claiming leaves only an expired lease; the
    next worker reclaims it and the job still completes."""
    queue = JobQueue(tmp_path)
    job = queue.submit(SPEC, lease_seconds=1e-9)

    context = multiprocessing.get_context("fork")
    process = context.Process(target=_claim_and_die, args=(str(tmp_path),))
    process.start()
    process.join(timeout=30)
    assert process.exitcode == -signal.SIGKILL

    stranded = queue.get(job.job_id)
    assert stranded.state == "running"
    assert stranded.worker_id == "doomed-worker"

    summary = run_service(tmp_path, worker_id="survivor")
    record = queue.get(job.job_id)
    assert record.state == "done"
    assert record.result["tier"] == "greedy"
    assert record.attempts == 2
    assert summary["queue_lease_reclaims"] == 1
    assert summary["worker_jobs_done"] == 1


@pytest.mark.parametrize("when", ["in-the-build", "before-complete"])
def test_a_lost_lease_is_counted_and_the_worker_drains_on(tmp_path, when):
    """The clock jumps past a 1 s lease while the worker serves its job and
    a thief reclaims it: the worker's heartbeat (or its complete) raises
    StaleLeaseError, which must not end the run."""
    now = [1000.0]
    queue = JobQueue(tmp_path, clock=lambda: now[0])
    worker = ServiceWorker(queue, ArtifactCache(tmp_path / "cache"), "slow")
    stolen = queue.submit(SPEC, lease_seconds=1.0).job_id
    other = queue.submit(dict(SPEC, stretch=2.0)).job_id
    real_process = worker.process

    def steal() -> None:
        now[0] += 5.0
        assert JobQueue(tmp_path, clock=lambda: now[0]).claim("thief").job_id == stolen

    def process(job):
        if job.job_id != stolen:
            return real_process(job)
        if when == "in-the-build":
            steal()  # the heartbeat after the build finds the lease lost
            return real_process(job)
        result = real_process(job)
        steal()  # complete finds the lease lost
        return result

    worker.process = process
    counters = worker.run()
    assert (counters["leases_lost"], counters["jobs_done"], counters["jobs_failed"]) == (1, 1, 0)
    record = queue.get(stolen)
    assert (record.state, record.worker_id, record.attempts) == ("running", "thief", 2)
    assert queue.get(other).state == "done"
    assert queue.complete(stolen, "thief", {"tier": "greedy"}).state == "done"


def test_run_service_summary_merges_all_counters(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit(SPEC)
    summary = run_service(tmp_path)
    assert summary["worker_jobs_done"] == 1
    assert summary["worker_cache_misses"] == 1
    assert summary["cache_puts"] == 1
    assert summary["queue_quarantined"] == 0


def test_run_service_reports_the_records_its_claims_read(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit(SPEC)
    assert run_service(tmp_path)["queue_records_read"] == 1
    # The finished job is out of the claim scan: draining again reads nothing.
    queue.submit(dict(SPEC, stretch=2.0))
    assert run_service(tmp_path)["queue_records_read"] == 1


def test_corrupt_head_is_rebuilt_never_served(service):
    queue, cache, worker = service
    queue.submit(SPEC)
    worker.run()
    original = cache.get(spec_key())
    manifest_path = cache.manifest_path(spec_key())
    data = bytearray(manifest_path.read_bytes())
    # Flip one bit of the head's edge count, keeping the manifest valid JSON:
    # a served head would report the wrong number of edges.
    at = data.index(b'"spanner_edges": ')
    data[data.index(b",", at) - 1] ^= 0x01  # the last digit
    manifest_path.write_bytes(bytes(data))
    assert json.loads(bytes(data))["head"]["spanner_edges"] != original["spanner_edges"]

    job = queue.submit(SPEC)
    worker.run()
    record = queue.get(job.job_id)
    assert record.state == "done"
    assert record.result["cache_hit"] is False
    assert record.result["rebuilt_after_corruption"] is True
    assert record.result["spanner_edges"] == len(original["edges"])
    assert worker.counters["corrupt_rebuilds"] == 1
    assert cache.counters["corrupt_quarantined"] == 1
    assert cache.get(spec_key())["edges"] == original["edges"]


def test_schema_1_artifact_is_rebuilt_then_served_from_its_head(service):
    queue, cache, worker = service
    queue.submit(SPEC)
    worker.run()
    original = cache.get(spec_key())
    manifest_path = cache.manifest_path(spec_key())
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = 1
    del manifest["head"], manifest["head_sha256"]
    manifest_path.write_text(json.dumps(manifest, indent=2))

    stale = queue.submit(SPEC)
    worker.run()
    result = queue.get(stale.job_id).result
    assert result["cache_hit"] is False
    assert result["rebuilt_after_corruption"] is False
    assert cache.counters["corrupt_quarantined"] == 0
    assert json.loads(manifest_path.read_text())["schema"] == 2

    warm = queue.submit(SPEC)
    worker.run()
    result = queue.get(warm.job_id).result
    assert result["cache_hit"] is True
    assert result["spanner_edges"] == len(original["edges"])
    assert result["tier"] == "greedy" and result["verified"] is True
    assert cache.counters["puts"] == 2
