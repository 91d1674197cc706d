"""Property tests: the streamed metric greedy equals the materialized one.

The streaming pipeline's whole claim is *byte-identity*: for every metric,
``sorted_pair_stream`` yields exactly the triples of
``complete_graph().edges_sorted_by_weight()``, so the greedy spanner built
from the stream is edge-identical to the one built from the materialized
complete graph.  Hypothesis drives that claim over random Euclidean point
sets (including integer grids, where many interpoint distances tie exactly)
and random explicit distance matrices with deliberately tied small-integer
entries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles.order import canonical_sorted

from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.metric.base import ExplicitMetric
from repro.metric.closure import MetricClosure
from repro.metric.euclidean import EuclideanMetric
from repro.metric.stream import sorted_pair_stream

# Distinct integer-grid points: coarse coordinates force exact weight ties
# (e.g. every axis-neighbour pair is at distance exactly 1.0).
euclidean_metrics = st.builds(
    lambda pts: EuclideanMetric(np.array(sorted(pts), dtype=float)),
    st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=2,
        max_size=14,
    ),
)


@st.composite
def explicit_metrics(draw) -> ExplicitMetric:
    """Random metric from small-integer distances in [10, 14].

    Any symmetric matrix with entries in ``[c, 2c]`` satisfies the triangle
    inequality, and the 5-value range makes weight ties the common case.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    distances = {
        (i, j): float(draw(st.integers(min_value=10, max_value=14)))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return ExplicitMetric(range(n), distances)


stretches = st.sampled_from([1.0, 1.2, 1.5, 2.0, 3.0])


@settings(max_examples=40, deadline=None)
@given(metric=euclidean_metrics, t=stretches)
def test_streamed_greedy_identical_on_euclidean(metric: EuclideanMetric, t: float):
    streamed = greedy_spanner_of_metric(metric, t)
    materialized = greedy_spanner(metric.complete_graph(), t)
    assert streamed.subgraph.same_edges(materialized.subgraph)


@settings(max_examples=40, deadline=None)
@given(metric=explicit_metrics(), t=stretches)
def test_streamed_greedy_identical_on_explicit(metric: ExplicitMetric, t: float):
    streamed = greedy_spanner_of_metric(metric, t)
    materialized = greedy_spanner(metric.complete_graph(), t)
    assert streamed.subgraph.same_edges(materialized.subgraph)


@settings(max_examples=25, deadline=None)
@given(metric=euclidean_metrics, t=stretches, buffer=st.integers(1, 6))
def test_banded_stream_greedy_identical(metric: EuclideanMetric, t: float, buffer: int):
    """Tiny buffers force the multi-band recomputation path of the stream."""
    banded = greedy_spanner(
        MetricClosure(metric),
        t,
        edges=sorted_pair_stream(metric, max_buffer=buffer),
    )
    materialized = greedy_spanner(metric.complete_graph(), t)
    assert banded.subgraph.same_edges(materialized.subgraph)


#: The 6x6 integer grid: 630 pairs over few distinct distances.
grid_6x6 = EuclideanMetric(np.array([(i, j) for i in range(6) for j in range(6)], dtype=float))


@settings(max_examples=40, deadline=None)
@given(
    metric=st.one_of(euclidean_metrics, explicit_metrics(), st.just(grid_6x6)),
    buffer=st.integers(1, 60),
)
def test_stream_order_identical(metric, buffer: int):
    """The stream itself (not just the spanner) is byte-identical in any banding.

    It equals the materialized sort and, independently of the rank lexsort
    both of those run, the plain ``(weight, repr(u), repr(v))`` sort.
    """
    edges = metric.complete_graph()
    streamed = list(sorted_pair_stream(metric, max_buffer=buffer))
    assert streamed == edges.edges_sorted_by_weight()
    assert streamed == canonical_sorted(edges.edges())
