"""Property tests for Approximate-Greedy: greedy at the simulation stretch on ``G'``.

Two claims are driven over random inputs and pinned instances:

* **stretch** — the output is a valid ``(1+ε)``-spanner (measured stretch at
  most ``t`` on every pair) on random Euclidean point sets and on random
  doubling-ish metrics, including exponentially spaced line points whose
  edge weights span many orders of magnitude;
* **contract** — the output ``A`` is exactly ``Greedy_{√(t·t')}(G')`` of its
  bounded-degree base spanner ``G'``: it equals greedy run on ``G'``, it is
  its own greedy spanner at the simulation stretch (Lemma 3 at
  ``√(t·t')``), it is a subgraph of ``G'`` with no larger maximum degree,
  and it passes the edge check at ``1 + ε`` — on random inputs, on the
  committed ``BENCH_oracles.json`` workload, and on a clustered instance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approximate_greedy import (
    _build_base_spanner,
    approximate_greedy_spanner,
    derive_parameters,
)
from repro.core.greedy import greedy_spanner
from repro.metric.euclidean import EuclideanMetric
from repro.metric.generators import (
    clustered_points,
    grid_points,
    line_points,
    random_graph_metric,
    uniform_points,
)
from repro.spanners.verification import verify_spanner_edges, verify_spanner_edges_detailed

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


def assert_greedy_on_base(spanner, metric, epsilon: float, base: str) -> None:
    """``spanner`` is ``Greedy_{√(t·t')}(G')`` and meets its ``1 + ε`` target."""
    params = derive_parameters(epsilon)
    simulation_stretch = spanner.metadata["simulation_stretch"]
    assert simulation_stretch == params.simulation_stretch
    base_graph = _build_base_spanner(
        metric, base, max(params.base_stretch - 1.0, 1e-9)
    ).subgraph
    output = spanner.subgraph
    assert greedy_spanner(base_graph, simulation_stretch).subgraph.same_edges(output)
    assert greedy_spanner(output, simulation_stretch).subgraph.same_edges(output)
    assert output.is_subgraph_of(base_graph)
    assert spanner.max_degree <= base_graph.max_degree()
    assert verify_spanner_edges(output, spanner.base, 1.0 + epsilon)


@settings(max_examples=25, deadline=None)
@given(metric=euclidean_metrics, epsilon=epsilons)
def test_stretch_within_target_on_random_euclidean(metric, epsilon):
    spanner = approximate_greedy_spanner(metric, epsilon)
    assert _max_stretch(spanner) <= (1.0 + epsilon) * (1.0 + 1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), epsilon=epsilons)
def test_stretch_within_target_on_random_doubling(seed, epsilon):
    metric = random_graph_metric(14, extra_edge_probability=0.3, seed=seed)
    spanner = approximate_greedy_spanner(metric, epsilon)
    assert _max_stretch(spanner) <= (1.0 + epsilon) * (1.0 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(metric=euclidean_metrics, epsilon=epsilons, base=st.sampled_from(["net-tree", "theta"]))
def test_output_is_greedy_on_its_base(metric, epsilon, base):
    spanner = approximate_greedy_spanner(metric, epsilon, base=base)
    assert_greedy_on_base(spanner, metric, epsilon, base)


#: Deterministic instances for the contract, each with a base it supports:
#: the Θ-graph only on planar Euclidean points, the net-tree everywhere.
#: The grid's equal weights exercise greedy's tie-breaking on ``G'`` and on
#: its own output.
CONTRACT_INSTANCES = {
    "uniform-2d-theta": (lambda: uniform_points(80, 2, seed=11), "theta"),
    "uniform-2d-net-tree": (lambda: uniform_points(50, 2, seed=11), "net-tree"),
    "clustered-2d-theta": (lambda: clustered_points(80, 2, clusters=4, seed=5), "theta"),
    "clustered-2d-net-tree": (lambda: clustered_points(50, 2, clusters=4, seed=5), "net-tree"),
    "grid-2d-theta": (lambda: grid_points(8), "theta"),
    "uniform-3d-net-tree": (lambda: uniform_points(40, 3, seed=13), "net-tree"),
    "line-net-tree": (lambda: line_points(25, spacing=1.0), "net-tree"),
    "random-graph-net-tree": (
        lambda: random_graph_metric(20, extra_edge_probability=0.3, seed=17),
        "net-tree",
    ),
}


@pytest.mark.parametrize("epsilon", [0.3, 0.8])
@pytest.mark.parametrize("instance", sorted(CONTRACT_INSTANCES))
def test_contract_on_fixed_instances(instance, epsilon):
    make_metric, base = CONTRACT_INSTANCES[instance]
    metric = make_metric()
    spanner = approximate_greedy_spanner(metric, epsilon, base=base)
    assert_greedy_on_base(spanner, metric, epsilon, base)


def test_exponential_line_is_greedy_on_its_base():
    """Exponential gaps make the base edge weights span many scales."""
    metric = line_points(12, spacing=1.0, exponential=True)
    spanner = approximate_greedy_spanner(metric, 0.5)
    assert spanner.is_valid()
    assert_greedy_on_base(spanner, metric, 0.5, "net-tree")


def test_clustered_instance_is_greedy_on_its_base():
    """The output is its own greedy spanner at ``√(t·t')`` (Lemma 3).  The
    light-edge and bucketed cluster-graph simulation this module replaced
    kept 376 edges here, of which greedy on them kept only 371."""
    metric = clustered_points(200, 2, clusters=5, seed=2)
    spanner = approximate_greedy_spanner(metric, 0.5, base="theta")
    assert_greedy_on_base(spanner, metric, 0.5, "theta")


def test_committed_oracle_workload_is_greedy_on_its_base():
    """The ``approx-greedy`` row of ``uniform-euclidean-n400-d2-seed7-t1.5``
    (a ``BENCH_oracles.json`` workload the CI re-emits)."""
    from repro.experiments.bench import instance_and_metric
    from repro.experiments.oracle_bench import SPEC, _run_strategy

    workload = SPEC.presets["uniform-euclidean-n400-d2-seed7-t1.5"].workload
    graph, metric = instance_and_metric(workload)
    spanner, extras = _run_strategy("approx-greedy", graph, metric, float(workload["stretch"]))
    assert spanner.number_of_edges == 841
    assert_greedy_on_base(spanner, metric, extras["epsilon"], "theta")
