"""Hypothesis property tests: the indexed engine equals the reference engine.

The indexed overlay engine (:mod:`repro.distributed.engine`) claims to be
*observationally identical* to the seed dict-based simulators: same
statistics rows, same delivery times, same flood trees, tie for tie.  These
tests generate random connected overlays — including **tie-heavy** ones
whose weights are drawn from a tiny pool of exactly-representable dyadic
values, so equal-time message races and equal-length shortest paths actually
occur — and assert exact equality between the seed engines of
``tests/oracles/distributed.py`` and the indexed engine for all three
protocols.

Exact (``==``) comparison is deliberate: dyadic weights make every path sum
float-exact, so any deviation in tie-breaking or accounting shows up as a
hard mismatch rather than hiding inside a tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles.distributed import (
    ReferenceRoutingScheme,
    broadcast_reference,
    flood_reference,
    weighted_diameter,
)

from repro.distributed.broadcast import broadcast_over_overlay, flood_broadcast_with_tree
from repro.distributed.routing import RoutingScheme, evaluate_routing, random_demands
from repro.distributed.synchronizer import synchronizer_cost
from repro.errors import DisconnectedGraphError
from repro.graph.weighted_graph import WeightedGraph

#: Small pool of dyadic weights: maximal ties, exact float arithmetic.
TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def connected_overlays(draw, max_vertices: int = 14):
    """A small connected overlay: random tree backbone plus extra edges.

    ``tie_heavy`` draws every weight from :data:`TIE_HEAVY_WEIGHTS`;
    otherwise weights are arbitrary floats in [0.1, 10] (ties are then
    measure-zero, exercising the unique-shortest-path regime).
    """
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


@settings(max_examples=60, deadline=None)
@given(connected_overlays(), st.integers(min_value=0, max_value=10**6))
def test_flood_statistics_and_tree_identical(overlay, source_seed):
    """Flood: statistics row, delivery times and flood tree match exactly."""
    vertices = list(overlay.vertices())
    source = vertices[source_seed % len(vertices)]
    ref_stats, ref_delivery, ref_tree = flood_reference(overlay, source)
    idx_stats, idx_delivery, idx_tree = flood_broadcast_with_tree(overlay, source)
    assert ref_stats.as_row() == idx_stats.as_row()
    assert ref_delivery == idx_delivery
    assert ref_tree == idx_tree


@settings(max_examples=40, deadline=None)
@given(connected_overlays())
def test_broadcast_result_rows_identical(overlay):
    """The full BroadcastResult row (echo phase included) matches exactly."""
    source = next(iter(overlay.vertices()))
    reference = broadcast_reference(overlay, overlay, source)
    indexed = broadcast_over_overlay(overlay, overlay, source)
    assert reference.as_row() == indexed.as_row()


@settings(max_examples=40, deadline=None)
@given(connected_overlays(), st.integers(min_value=0, max_value=10**6))
def test_routing_statistics_rows_identical(overlay, demand_seed):
    """Routing: the aggregate report matches exactly (table bytes excluded).

    Under ties the two engines may pick different equal-length shortest
    paths, but every aggregate — total routed weight, stretch percentiles —
    is a sum of exactly-representable path lengths, so the rows must still
    be equal.
    """
    demands = random_demands(overlay, 15, seed=demand_seed)
    reference = evaluate_routing(
        overlay, overlay, demands, scheme=ReferenceRoutingScheme(overlay)
    ).as_row()
    indexed = evaluate_routing(overlay, overlay, demands).as_row()
    reference.pop("table_bytes")
    indexed.pop("table_bytes")
    assert reference == indexed


@settings(max_examples=40, deadline=None)
@given(connected_overlays())
def test_synchronizer_rows_identical(overlay):
    """Synchronizer: the pulse delay is exactly the seed dict-Dijkstra diameter."""
    indexed = synchronizer_cost(overlay, pulses=7)
    delay = weighted_diameter(overlay)
    assert indexed.pulse_delay == delay
    assert indexed.total_cost == 7 * (indexed.communication_per_pulse + delay)


@settings(max_examples=25, deadline=None)
@given(connected_overlays(max_vertices=8), connected_overlays(max_vertices=8))
def test_disconnected_overlay_fails_fast_with_count(left, right):
    """Both routing engines name the unreachable vertex count up front."""
    union = WeightedGraph(vertices=range(len(left) + len(right)))
    offset = len(left)
    for u, v, weight in left.edges():
        union.add_edge(u, v, weight)
    for u, v, weight in right.edges():
        union.add_edge(u + offset, v + offset, weight)
    for scheme in (RoutingScheme, ReferenceRoutingScheme):
        with pytest.raises(DisconnectedGraphError) as excinfo:
            scheme(union)
        assert f"{len(right)} of {len(union)}" in str(excinfo.value)
