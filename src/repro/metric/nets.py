"""Nets and hierarchical nets (net-trees) for doubling metrics.

An ``r``-net of a metric space is a subset ``N`` that is both *covering*
(every point is within distance ``r`` of some net point) and *packing* (net
points are pairwise more than ``r`` apart).  Hierarchies of nets at
geometrically decreasing scales are the standard machinery behind
bounded-degree spanners for doubling metrics (Theorem 2 of the paper,
CGMZ05/GR08) and behind the cluster graphs of the approximate-greedy
algorithm (Section 5.1).

The constructions here are the straightforward greedy ones — adequate for the
problem sizes of the experiments; the asymptotic-runtime claims of the paper
are reproduced as *operation-count scaling* by the instrumented algorithms,
not by these helpers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import EmptyMetricError
from repro.metric.base import FiniteMetric, Point


def greedy_net(
    metric: FiniteMetric, radius: float, *, seed_order: Optional[Sequence[Point]] = None
) -> list[Point]:
    """Return an ``r``-net of ``metric`` built greedily.

    Scans the points (in ``seed_order`` if given, otherwise in the metric's
    natural order) and keeps a point iff it is at distance greater than
    ``radius`` from every net point chosen so far.  The result satisfies both
    the packing property (pairwise distances > ``radius``) and the covering
    property (every point within ``radius`` of a net point).
    """
    order = list(seed_order) if seed_order is not None else list(metric.points())
    net: list[Point] = []
    for p in order:
        if all(metric.distance(p, q) > radius for q in net):
            net.append(p)
    return net


def is_r_net(metric: FiniteMetric, net: Sequence[Point], radius: float, *, tolerance: float = 1e-9) -> bool:
    """Return True if ``net`` is an ``r``-net: packing and covering both hold."""
    net_list = list(net)
    for i, p in enumerate(net_list):
        for q in net_list[i + 1:]:
            if metric.distance(p, q) <= radius - tolerance:
                return False
    for p in metric.points():
        if not any(metric.distance(p, q) <= radius + tolerance for q in net_list):
            return False
    return True


@dataclass
class NetLevel:
    """A single level of a net hierarchy.

    Attributes
    ----------
    scale:
        The net radius ``r_i`` of this level.
    centres:
        The net points at this level.
    parent:
        For each centre, its covering centre at the next coarser level
        (``None`` for the top level's single centre).
    """

    scale: float
    centres: list[Point]
    parent: dict[Point, Optional[Point]] = field(default_factory=dict)


class NetHierarchy:
    """A hierarchy of nested nets at geometrically decreasing scales.

    Level 0 is the coarsest (a single centre covering the whole space at the
    diameter scale); each subsequent level halves the scale until the minimum
    interpoint distance is reached, at which point every point is a centre.
    Level ``i``'s centres always include level ``i-1``'s centres (nested nets),
    which is the structure used by net-tree spanners and by the cluster graphs
    of the approximate-greedy algorithm.
    """

    def __init__(self, metric: FiniteMetric, *, scale_factor: float = 0.5) -> None:
        if metric.size == 0:
            raise EmptyMetricError("cannot build a net hierarchy on an empty metric")
        if not 0.0 < scale_factor < 1.0:
            raise ValueError("scale_factor must lie strictly between 0 and 1")
        self.metric = metric
        self.levels: list[NetLevel] = []
        self._build(scale_factor)

    def _build(self, scale_factor: float) -> None:
        points = list(self.metric.points())
        diameter = self.metric.diameter()
        min_dist = self.metric.minimum_distance()

        if diameter <= 0.0 or not math.isfinite(min_dist):
            self.levels.append(NetLevel(scale=0.0, centres=points, parent={points[0]: None}))
            return

        scale = diameter
        previous_centres = [points[0]]
        self.levels.append(
            NetLevel(scale=scale, centres=list(previous_centres), parent={points[0]: None})
        )
        while scale > min_dist / 2.0:
            scale *= scale_factor
            # Nested nets: seed with the previous level's centres first.
            order = previous_centres + [p for p in points if p not in set(previous_centres)]
            centres = greedy_net(self.metric, scale, seed_order=order)
            parent: dict[Point, Optional[Point]] = {}
            for c in centres:
                best = None
                best_dist = math.inf
                for parent_centre in previous_centres:
                    d = self.metric.distance(c, parent_centre)
                    if d < best_dist:
                        best = parent_centre
                        best_dist = d
                parent[c] = best
            self.levels.append(NetLevel(scale=scale, centres=centres, parent=parent))
            previous_centres = centres
            if len(centres) == len(points):
                break

    @property
    def depth(self) -> int:
        """The number of levels in the hierarchy."""
        return len(self.levels)

    def finest_level(self) -> NetLevel:
        """Return the finest (smallest-scale) level."""
        return self.levels[-1]

    def level_of_scale(self, scale: float) -> NetLevel:
        """Return the coarsest level whose scale is at most ``scale``."""
        for level in self.levels:
            if level.scale <= scale:
                return level
        return self.levels[-1]

    def check_nesting(self) -> bool:
        """Return True if every level's centres contain the previous level's centres."""
        for coarser, finer in zip(self.levels, self.levels[1:]):
            if not set(coarser.centres).issubset(set(finer.centres)):
                return False
        return True

    def check_packing_and_covering(self, *, tolerance: float = 1e-9) -> bool:
        """Return True if every level is a valid net at its scale."""
        return all(
            is_r_net(self.metric, level.centres, level.scale, tolerance=tolerance)
            for level in self.levels
        )
