"""Metric-layer references: nearest-net-point assignment and the stream check.

:func:`stream_is_order_identical` materializes the complete graph, so it
only suits small instances: it is the invariant the streamed pair order
guarantees, checked against the graph's own sorted edge list.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.metric.base import FiniteMetric, Point
from repro.metric.stream import sorted_pair_stream


def net_assignment(
    metric: FiniteMetric, net: Sequence[Point], radius: float
) -> dict[Point, Point]:
    """Assign every point to its nearest net point (ties broken by net order).

    Every point is guaranteed to be within ``radius`` of its assigned centre
    when ``net`` is an ``r``-net.
    """
    assignment: dict[Point, Point] = {}
    for p in metric.points():
        best = None
        best_dist = math.inf
        for centre in net:
            d = metric.distance(p, centre)
            if d < best_dist:
                best = centre
                best_dist = d
        assignment[p] = best
    return assignment


def stream_is_order_identical(metric: FiniteMetric, **kwargs: object) -> bool:
    """Cross-check helper: does the stream equal the materialized sorted edges?

    Materializes the complete graph, so only suitable for tests and small
    instances — this is the invariant the streaming pipeline guarantees.
    """
    materialized = metric.complete_graph().edges_sorted_by_weight()
    return list(sorted_pair_stream(metric, **kwargs)) == materialized
