"""Trivial spanner baselines: MST and complete graph.

These anchor the two ends of the size/lightness spectrum in the comparison
experiments:

* the **MST** is the lightest possible connected subgraph (lightness exactly
  1) but its stretch can be as bad as ``n - 1``,
* the **complete graph** (or the input graph itself) has stretch exactly 1
  but maximal size and weight.
"""

from __future__ import annotations

import numpy as np

from repro.core.spanner import Spanner
from repro.graph.mst import kruskal_mst
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure


def mst_spanner(graph: WeightedGraph) -> Spanner:
    """Return the MST of ``graph`` packaged as a spanner (stretch up to ``n - 1``)."""
    tree = kruskal_mst(graph)
    return Spanner(
        base=graph,
        subgraph=tree,
        stretch=float(max(graph.number_of_vertices - 1, 1)),
        algorithm="mst",
    )


def metric_mst_spanner(metric: FiniteMetric) -> Spanner:
    """Return the MST of a metric's complete graph without materializing it.

    Dense Prim over the point set: one distance row per step (``n - 1`` rows
    of ``n`` distances, O(n) memory), the same scan order as
    :meth:`MetricClosure.dense_metric_mst_weight` but also recording the tree
    edges — the overlay bench needs the tree itself, and Kruskal on the
    closure would sort all ``n(n-1)/2`` pairs.
    """
    closure = MetricClosure(metric)
    points = list(metric.points())
    n = len(points)
    tree = closure.empty_spanning_subgraph()
    if n > 1:
        if hasattr(metric, "distances_from"):
            def row_of(index: int) -> np.ndarray:
                return np.asarray(metric.distances_from(points[index]), dtype=float)
        else:
            def row_of(index: int) -> np.ndarray:
                source = points[index]
                return np.fromiter(
                    (metric.distance(source, q) for q in points), dtype=float, count=n
                )

        best = row_of(0)
        attach = np.zeros(n, dtype=np.int64)
        in_tree = np.zeros(n, dtype=bool)
        in_tree[0] = True
        for _ in range(n - 1):
            candidate = int(np.argmin(np.where(in_tree, np.inf, best)))
            tree.add_edge(points[candidate], points[int(attach[candidate])], float(best[candidate]))
            in_tree[candidate] = True
            row = row_of(candidate)
            improved = row < best
            best = np.where(improved, row, best)
            attach[improved] = candidate
    return Spanner(
        base=closure,
        subgraph=tree,
        stretch=float(max(n - 1, 1)),
        algorithm="mst",
    )


def identity_spanner(graph: WeightedGraph) -> Spanner:
    """Return the graph itself as a (stretch-1) spanner."""
    return Spanner(base=graph, subgraph=graph.copy(), stretch=1.0, algorithm="identity")


def complete_metric_spanner(metric: FiniteMetric) -> Spanner:
    """Return the complete graph of a metric as the stretch-1 spanner.

    Both the base and the subgraph are lazy :class:`MetricClosure` views —
    the ``n(n-1)/2`` edges exist only as metric queries, never in memory.
    """
    complete = MetricClosure(metric)
    return Spanner(base=complete, subgraph=complete.copy(), stretch=1.0, algorithm="complete")
