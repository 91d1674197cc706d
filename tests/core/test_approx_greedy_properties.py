"""Property tests for Approximate-Greedy and the incremental cluster engine.

Three claims are driven over random inputs:

* **stretch** — the output is a valid ``(1+ε)``-spanner (measured stretch at
  most ``t`` on every pair) on random Euclidean point sets and on random
  doubling-ish metrics, including runs forced through many bucket
  transitions (``bucket_ratio=2``) and through *empty* buckets (exponential
  line points make the geometric weight partition skip indices, so the
  radius jumps across several bucket boundaries at one transition);
* **engine equivalence** — the incremental merge engine and the replay
  oracle (``tests/oracles/cluster.py``, every level recomputed from nothing)
  compute the *identical* cluster hierarchy (same centres, assignments,
  offsets, bounds), hence the identical spanner edge set — on random inputs
  and on the committed ``BENCH_oracles.json`` workload; every incremental
  merge is additionally self-checked against the per-centre-ball reference
  by running the stretch tests on ``VerifyingClusterGraph``;
* **sweep equivalence** — the batched multi-source clustering sweep equals
  the sequential per-centre-ball construction exactly (this is the kernel
  both engines and both claims above stand on).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.cluster import ReplayClusterGraph, VerifyingClusterGraph, cluster_by_balls

import repro.core.approximate_greedy
from repro.core.approximate_greedy import approximate_greedy_spanner
from repro.core.cluster_graph import ClusterGraph
from repro.graph.generators import random_connected_graph
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import indexed_greedy_clustering
from repro.metric.euclidean import EuclideanMetric
from repro.metric.generators import line_points, random_graph_metric
from repro.spanners.verification import verify_spanner_edges_detailed

euclidean_metrics = st.builds(
    lambda pts: EuclideanMetric(np.array(sorted(pts), dtype=float)),
    st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=0, max_value=60),
        ),
        min_size=3,
        max_size=18,
    ),
)

epsilons = st.sampled_from([0.3, 0.5, 0.8])


def _max_stretch(spanner) -> float:
    """Exact measured stretch over all base pairs (the base is complete)."""
    return verify_spanner_edges_detailed(spanner.subgraph, spanner.base, math.inf).max_stretch


def _with_engine(engine: type[ClusterGraph], *args, **kwargs):
    """Approximate-Greedy with ``engine`` as its cluster engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.approximate_greedy, "ClusterGraph", engine)
        return approximate_greedy_spanner(*args, **kwargs)


@settings(max_examples=25, deadline=None)
@given(metric=euclidean_metrics, epsilon=epsilons)
def test_stretch_within_target_on_random_euclidean(metric, epsilon):
    spanner = _with_engine(VerifyingClusterGraph, metric, epsilon, bucket_ratio=2.0)
    assert _max_stretch(spanner) <= (1.0 + epsilon) * (1.0 + 1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), epsilon=epsilons)
def test_stretch_within_target_on_random_doubling(seed, epsilon):
    metric = random_graph_metric(14, extra_edge_probability=0.3, seed=seed)
    spanner = _with_engine(VerifyingClusterGraph, metric, epsilon, bucket_ratio=2.0)
    assert _max_stretch(spanner) <= (1.0 + epsilon) * (1.0 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(metric=euclidean_metrics, epsilon=epsilons)
def test_incremental_equals_from_scratch_spanner(metric, epsilon):
    incremental = approximate_greedy_spanner(metric, epsilon, bucket_ratio=2.0)
    scratch = _with_engine(ReplayClusterGraph, metric, epsilon, bucket_ratio=2.0)
    assert incremental.subgraph.same_edges(scratch.subgraph)
    # The two engines also do the same *query* work, because the cluster
    # structures they serve queries from are identical.
    assert (
        incremental.metadata["cluster_query_settles"]
        == scratch.metadata["cluster_query_settles"]
    )


class TestForcedBucketShapes:
    def test_exponential_line_forces_empty_buckets(self):
        """Exponential gaps leave whole weight buckets empty: the radius jumps
        across several bucket boundaries at one transition and the output is
        still a valid spanner, with both engines in agreement."""
        metric = line_points(12, spacing=1.0, exponential=True)
        incremental = _with_engine(VerifyingClusterGraph, metric, 0.5, bucket_ratio=2.0)
        scratch = _with_engine(ReplayClusterGraph, metric, 0.5, bucket_ratio=2.0)
        assert incremental.metadata["buckets"] >= 2
        assert incremental.is_valid()
        assert incremental.subgraph.same_edges(scratch.subgraph)

    def test_single_bucket_run_has_no_transitions(self):
        metric = line_points(8, spacing=1.0)
        spanner = approximate_greedy_spanner(metric, 0.5, bucket_ratio=1e9)
        assert spanner.metadata["buckets"] == 1.0
        assert spanner.metadata["cluster_transitions"] == 0.0
        assert spanner.is_valid()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    radius=st.floats(min_value=0.0, max_value=30.0),
)
def test_sweep_equals_per_centre_balls(seed, radius):
    """The batched clustering sweep is *exactly* the per-centre-ball
    construction: same centres, same assignments, same float offsets."""
    graph = random_connected_graph(24, 0.15, seed=seed)
    index = IndexedGraph.from_weighted_graph(graph)
    fast = indexed_greedy_clustering(index, radius)
    reference = cluster_by_balls(index, radius)
    assert fast[:3] == reference[:3]
    # The batched sweep never settles more than the per-ball construction.
    assert fast[3] <= reference[3]


class TestClusterGraphEngineEquivalence:
    def _drive(self, engine: type[ClusterGraph], seed: int) -> ClusterGraph:
        """Drive one cluster engine through a transition/notify op sequence."""
        graph = random_connected_graph(30, 0.12, seed=seed)
        clusters = engine(graph, 0.5)
        rng = np.random.default_rng(seed)
        vertices = list(graph.vertices())
        radius = 0.5
        for step in range(4):
            radius *= 2.5
            clusters.transition(radius)
            for _ in range(3):
                u, v = rng.choice(len(vertices), size=2, replace=False)
                u, v = vertices[int(u)], vertices[int(v)]
                if not graph.has_edge(u, v):
                    weight = float(rng.uniform(0.5, 3.0))
                    graph.add_edge(u, v, weight)
                    clusters.notify_edge_added(u, v, weight)
        return clusters

    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_identical_hierarchy_state(self, seed):
        incremental = self._drive(VerifyingClusterGraph, seed)
        scratch = self._drive(ReplayClusterGraph, seed)
        assert incremental._centres == scratch._centres
        assert incremental._centre_vid == scratch._centre_vid
        assert incremental._offset == scratch._offset
        assert incremental._cluster_bounds == scratch._cluster_bounds
        assert incremental.merge_count > 0
        assert scratch.rebuild_count > incremental.rebuild_count

    @pytest.mark.parametrize("seed", [5, 23])
    def test_identical_queries(self, seed):
        incremental = self._drive(VerifyingClusterGraph, seed)
        scratch = self._drive(ReplayClusterGraph, seed)
        vertices = list(incremental.spanner.vertices())
        for u in vertices[:6]:
            for v in vertices[-6:]:
                assert incremental.approximate_distance(
                    u, v, math.inf
                ) == scratch.approximate_distance(u, v, math.inf)


def test_committed_oracle_workload_matches_the_replay_oracle():
    """The ``approx-greedy`` row of ``uniform-euclidean-n400-d2-seed7-t1.5``
    (a ``BENCH_oracles.json`` workload the CI re-emits): the incremental
    engine and the replay oracle build the same edge set and do the same
    query work."""
    from repro.experiments.oracle_bench import SPEC, _build_instance, _run_strategy

    workload = SPEC.presets["uniform-euclidean-n400-d2-seed7-t1.5"].workload
    graph, metric = _build_instance(workload)
    stretch = float(workload["stretch"])
    incremental, _ = _run_strategy("approx-greedy", graph, metric, stretch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.approximate_greedy, "ClusterGraph", ReplayClusterGraph)
        replayed, _ = _run_strategy("approx-greedy", graph, metric, stretch)
    assert incremental.number_of_edges == 841
    assert incremental.subgraph.same_edges(replayed.subgraph)
    assert (
        incremental.metadata["cluster_query_settles"]
        == replayed.metadata["cluster_query_settles"]
    )
