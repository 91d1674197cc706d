"""Property tests for the fault layer: determinism and engine equivalence.

The robustness layer makes two strong claims:

* a :class:`FaultPlan` is a pure function of its sampling arguments — same
  seed, byte-identical schedule and per-message decisions;
* the hardened flood replays the same plan **tie for tie** on the seed
  dict-graph engine (``tests/oracles/distributed.py``) and the indexed
  engine — identical statistics rows, delivery times, flood trees and echo
  accounting, including on tie-heavy dyadic weights where equal-time races
  actually occur, and on the fault bench's CI row.

Exact (``==``) comparison is deliberate throughout, as in
``test_engine_equivalence.py``: dyadic weights keep every event time
float-exact, so a tie-break divergence is a hard mismatch, not tolerance
noise.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st
from oracles.distributed import resilient_flood_reference

from repro.core.greedy import greedy_spanner
from repro.distributed.broadcast import flood_broadcast_with_tree
from repro.distributed.faults import FaultPlan, edge_key
from repro.distributed.resilient import (
    ResilientParams,
    delivery_report,
    resilient_echo,
    resilient_flood,
)
from repro.experiments.fault_bench import SPEC as FAULT_SPEC, _without_faults, sample_fault_plan
from repro.experiments.overlay_bench import _build_instance
from repro.graph.weighted_graph import WeightedGraph

#: Small pool of dyadic weights: maximal ties, exact float arithmetic.
TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def connected_overlays(draw, max_vertices: int = 12):
    """A small connected overlay: random tree backbone plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    tie_heavy = draw(st.booleans())
    if tie_heavy:
        weights = st.sampled_from(TIE_HEAVY_WEIGHTS)
    else:
        weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    graph = WeightedGraph(vertices=range(n))
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        graph.add_edge(parent, v, draw(weights))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(weights))
    return graph


@st.composite
def fault_regimes(draw):
    """Sampling arguments of a FaultPlan (rates kept survivable)."""
    return {
        "seed": draw(st.integers(min_value=0, max_value=10**6)),
        "edge_failure_rate": draw(st.sampled_from((0.0, 0.05, 0.15, 0.3))),
        "failure_band": draw(st.sampled_from((0.1, 0.3, 1.0))),
        "node_crash_rate": draw(st.sampled_from((0.0, 0.1, 0.2))),
        "drop_rate": draw(st.sampled_from((0.0, 0.05, 0.2))),
        "delay_jitter": draw(st.sampled_from((0.0, 0.25))),
    }


def _sample(overlay, regime, source):
    return FaultPlan.sample(overlay, protect=(source,), **regime)


@settings(max_examples=60, deadline=None)
@given(connected_overlays(), fault_regimes())
def test_same_seed_yields_byte_identical_plan(overlay, regime):
    """Two plans sampled with the same arguments serialize byte-identically."""
    source = next(iter(overlay.vertices()))
    first = _sample(overlay, regime, source)
    second = _sample(overlay, regime, source)
    assert first.as_dict() == second.as_dict()
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )


@settings(max_examples=60, deadline=None)
@given(connected_overlays(), fault_regimes())
def test_engines_replay_faults_tie_for_tie(overlay, regime):
    """Reference and indexed hardened floods match exactly under faults."""
    source = next(iter(overlay.vertices()))
    plan = _sample(overlay, regime, source)
    reference = resilient_flood_reference(overlay, source, plan)
    indexed = resilient_flood(overlay, source, plan)
    assert reference.statistics.as_row() == indexed.statistics.as_row()
    assert reference.delivery_time == indexed.delivery_time
    assert reference.parent == indexed.parent
    ref_echo = resilient_echo(overlay, source, reference, plan)
    idx_echo = resilient_echo(overlay, source, indexed, plan)
    assert ref_echo.as_row() == idx_echo.as_row()


#: The fault bench's CI row (the key the ``repro bench faults`` CI step emits).
CI_FAULT_KEY = "geometric-n300-r0.12-seed7-t1.5-f11-ef0.02-fb0.3-nc0.02-dr0.05-dj0.25-ocached"


def test_engines_replay_the_ci_fault_row_tie_for_tie():
    """The bench's own overlay, source and plan replay identically on both engines."""
    workload = FAULT_SPEC.presets[CI_FAULT_KEY].workload
    graph, _ = _build_instance(_without_faults(workload))
    overlay = greedy_spanner(graph, float(workload["stretch"]), oracle="cached").subgraph
    source, plan = sample_fault_plan(overlay, workload)
    reference = resilient_flood_reference(overlay, source, plan)
    indexed = resilient_flood(overlay, source, plan)
    assert reference.statistics.as_row() == indexed.statistics.as_row()
    assert reference.delivery_time == indexed.delivery_time
    assert reference.parent == indexed.parent
    assert (
        resilient_echo(overlay, source, reference, plan).as_row()
        == resilient_echo(overlay, source, indexed, plan).as_row()
    )
    assert indexed.statistics.retries > 0  # the plan really drops messages


@settings(max_examples=60, deadline=None)
@given(connected_overlays(), fault_regimes())
def test_hardened_flood_delivers_to_all_surviving_reachable(overlay, regime):
    """The delivery guarantee: every surviving-reachable vertex is reached."""
    source = next(iter(overlay.vertices()))
    plan = _sample(overlay, regime, source)
    result = resilient_flood(overlay, source, plan)
    report = delivery_report(overlay, source, plan, result)
    assert report["missed"] == 0.0
    assert report["delivery_complete"] == 1.0
    assert report["delivery_rate"] >= 1.0


@settings(max_examples=40, deadline=None)
@given(connected_overlays(), st.integers(min_value=0, max_value=10**6))
def test_empty_plan_reproduces_plain_flood(overlay, source_seed):
    """With no faults the hardened flood's tree is the plain flood's tree."""
    vertices = list(overlay.vertices())
    source = vertices[source_seed % len(vertices)]
    plan = FaultPlan(seed=0)
    result = resilient_flood(overlay, source, plan)
    _, plain_delivery, plain_tree = flood_broadcast_with_tree(overlay, source)
    assert result.delivery_time == plain_delivery
    assert result.parent == plain_tree
    assert result.statistics.retries == 0
    assert result.statistics.messages_lost == 0
    assert result.statistics.give_ups == 0


class TestFaultPlan:
    def test_protected_vertices_never_crash(self):
        overlay = WeightedGraph(
            edges=[(i, i + 1, 1.0 + 0.1 * i) for i in range(20)]
        )
        plan = FaultPlan.sample(
            overlay, seed=3, node_crash_rate=0.5, protect=(0, 1, 2)
        )
        assert not set(plan.crashed_nodes()) & {0, 1, 2}

    def test_failure_band_draws_heaviest_edges(self):
        overlay = WeightedGraph(
            edges=[(i, i + 1, float(i + 1)) for i in range(20)]
        )
        plan = FaultPlan.sample(
            overlay, seed=5, edge_failure_rate=0.2, failure_band=0.25
        )
        assert len(plan.failed_edges()) == 4
        # The band is the heaviest 25% of 20 edges: weights 16..20.
        for u, v in plan.failed_edges():
            assert overlay.weight(u, v) >= 16.0

    def test_edge_alive_flips_at_fail_time(self):
        plan = FaultPlan(edge_fail_time={edge_key(1, 2): 5.0})
        assert plan.edge_alive(1, 2, 4.999)
        assert not plan.edge_alive(2, 1, 5.0)
        assert plan.edge_alive(3, 4, 100.0)

    def test_drop_rate_zero_never_drops(self):
        plan = FaultPlan(seed=9, drop_rate=0.0, ack_drop_rate=0.0)
        assert not any(
            plan.drops(1, 2, kind, attempt)
            for kind in ("data", "ack", "echo")
            for attempt in range(8)
        )

    def test_retransmissions_get_fresh_coins(self):
        plan = FaultPlan(seed=9, drop_rate=0.5)
        coins = {plan.drops(1, 2, "data", attempt) for attempt in range(32)}
        assert coins == {True, False}

    def test_surviving_reachable_excludes_crashed_source(self):
        overlay = WeightedGraph(edges=[(1, 2, 1.0), (2, 3, 1.0)])
        plan = FaultPlan(node_crash_time={1: 0.5})
        assert plan.surviving_reachable(overlay, 1) == set()

    def test_give_up_on_permanently_dead_link(self):
        """A link severed at t=0 is retried ``max_attempts`` times then dropped."""
        overlay = WeightedGraph(edges=[(1, 2, 1.0)])
        plan = FaultPlan(seed=0, edge_fail_time={edge_key(1, 2): 0.0})
        params = ResilientParams(max_attempts=4)
        result = resilient_flood(overlay, 1, plan, params=params)
        assert result.reached == 1  # only the source
        assert result.statistics.data_sends == 4
        assert result.statistics.give_ups == 1
        assert result.statistics.messages_lost == 4


class TestHashSeedIndependence:
    """The fault schedule must not depend on the interpreter's hash seed.

    ``PYTHONHASHSEED`` perturbs ``hash(str)`` and set/dict iteration order
    between interpreter runs; a FaultPlan (and the flood it drives) must
    come out byte-identical anyway — its coins are stable hashes, not
    ``hash()``.  A subprocess per seed is the only honest way to vary it.
    """

    SCRIPT = r"""
import hashlib, json, sys
from repro.core.greedy import greedy_spanner
from repro.distributed.faults import FaultPlan
from repro.distributed.resilient import resilient_flood
from repro.graph.generators import random_geometric_graph

graph = random_geometric_graph(60, 0.3, seed=7)
overlay = greedy_spanner(graph, 1.5).subgraph
source = min(overlay.vertices(), key=repr)
plan = FaultPlan.sample(
    overlay, seed=11, edge_failure_rate=0.05, failure_band=0.5,
    node_crash_rate=0.05, drop_rate=0.1, delay_jitter=0.25,
    protect=(source,),
)
flood = resilient_flood(overlay, source, plan)
canonical = json.dumps({
    "describe": plan.describe(),
    "failed": sorted(repr(e) for e in plan.failed_edges()),
    "stats": sorted(flood.statistics.as_row().items()),
    "delivery": sorted((repr(v), t) for v, t in flood.delivery_time.items()),
    "parents": sorted((repr(v), repr(p)) for v, p in flood.parent.items()),
}, sort_keys=True)
print(hashlib.sha256(canonical.encode()).hexdigest())
"""

    def test_fault_plan_and_flood_are_hash_seed_invariant(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        digests = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(src)
            output = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            digests.add(output)
        assert len(digests) == 1, (
            "FaultPlan or flood replay diverged across PYTHONHASHSEED values"
        )
