"""Well-separated pair decompositions (WSPD) and the WSPD spanner.

The WSPD spanner (Callahan–Kosaraju style) is the other classic Euclidean
construction the experimental studies compare the greedy spanner against: a
split-tree is built over the point set, pairs of tree cells that are
*s-well-separated* (their distance is at least ``s`` times the larger cell
diameter) are enumerated, and one representative edge is added per pair.
With separation ``s = 4(t+1)/(t-1)`` the result is a ``t``-spanner with
``O(s^d · n)`` edges.

Like the Θ-graph it is sparse but much heavier and denser than the greedy
spanner, which is what experiment E6 measures.  The implementation works in
any constant dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import InvalidStretchError
from repro.core.spanner import Spanner
from repro.metric.euclidean import EuclideanMetric
from repro.metric.closure import MetricClosure


@dataclass
class SplitTreeNode:
    """A node of the fair split tree: an axis-aligned cell containing a set of points."""

    indices: list[int]
    bounds_low: np.ndarray
    bounds_high: np.ndarray
    left: Optional["SplitTreeNode"] = None
    right: Optional["SplitTreeNode"] = None
    representative: int = -1
    children: list["SplitTreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return len(self.indices) == 1

    def diameter(self) -> float:
        """Return the diameter of the node's bounding box."""
        return float(np.linalg.norm(self.bounds_high - self.bounds_low))

    def centre(self) -> np.ndarray:
        """Return the centre of the bounding box."""
        return (self.bounds_high + self.bounds_low) / 2.0


def build_split_tree(coordinates: np.ndarray) -> SplitTreeNode:
    """Build a fair split tree over ``coordinates`` by recursive longest-axis bisection."""

    def build(indices: list[int]) -> SplitTreeNode:
        points = coordinates[indices]
        low = points.min(axis=0)
        high = points.max(axis=0)
        node = SplitTreeNode(indices=indices, bounds_low=low, bounds_high=high)
        node.representative = indices[0]
        if len(indices) == 1:
            return node
        extents = high - low
        axis = int(np.argmax(extents))
        midpoint = (low[axis] + high[axis]) / 2.0
        left_indices = [i for i in indices if coordinates[i][axis] <= midpoint]
        right_indices = [i for i in indices if coordinates[i][axis] > midpoint]
        if not left_indices or not right_indices:
            # Degenerate split (identical coordinates along the axis): split evenly.
            half = len(indices) // 2
            left_indices, right_indices = indices[:half], indices[half:]
        node.left = build(left_indices)
        node.right = build(right_indices)
        node.children = [node.left, node.right]
        return node

    return build(list(range(coordinates.shape[0])))


def _well_separated(a: SplitTreeNode, b: SplitTreeNode, separation: float) -> bool:
    """Return True if the two cells are s-well-separated (ball-enclosure test)."""
    radius = max(a.diameter(), b.diameter()) / 2.0
    centre_distance = float(np.linalg.norm(a.centre() - b.centre()))
    gap = centre_distance - a.diameter() / 2.0 - b.diameter() / 2.0
    return gap >= separation * radius


def wspd_pairs(
    root: SplitTreeNode, separation: float
) -> list[tuple[SplitTreeNode, SplitTreeNode]]:
    """Enumerate the well-separated pairs of the split tree at the given separation."""
    pairs: list[tuple[SplitTreeNode, SplitTreeNode]] = []

    def find_pairs(a: SplitTreeNode, b: SplitTreeNode) -> None:
        if a is b:
            if a.is_leaf:
                return
            find_pairs(a.left, a.right)
            find_pairs(a.left, a.left)
            find_pairs(a.right, a.right)
            return
        if _well_separated(a, b, separation):
            pairs.append((a, b))
            return
        # Split the node with the larger diameter.
        if a.diameter() >= b.diameter() and not a.is_leaf:
            find_pairs(a.left, b)
            find_pairs(a.right, b)
        elif not b.is_leaf:
            find_pairs(a, b.left)
            find_pairs(a, b.right)
        else:
            find_pairs(a.left, b)
            find_pairs(a.right, b)

    find_pairs(root, root)
    return pairs


def separation_for_stretch(t: float) -> float:
    """Return the separation parameter ``s = 4(t+1)/(t-1)`` giving a ``t``-spanner."""
    if t <= 1.0:
        raise InvalidStretchError("the WSPD spanner cannot achieve stretch 1")
    return 4.0 * (t + 1.0) / (t - 1.0)


def wspd_spanner(metric: EuclideanMetric, t: float) -> Spanner:
    """Build the WSPD ``t``-spanner of a Euclidean metric.

    One edge is added between the representatives of every well-separated
    pair at separation ``4(t+1)/(t-1)``.
    """
    separation = separation_for_stretch(t)
    coordinates = metric.coordinates
    base = MetricClosure(metric)
    subgraph = base.empty_spanning_subgraph()

    root = build_split_tree(coordinates)
    pairs = wspd_pairs(root, separation)
    for a, b in pairs:
        p, q = a.representative, b.representative
        if p != q and not subgraph.has_edge(p, q):
            subgraph.add_edge(p, q, metric.distance(p, q))

    return Spanner(
        base=base,
        subgraph=subgraph,
        stretch=t,
        algorithm="wspd",
        metadata={
            "separation": separation,
            "pairs": float(len(pairs)),
        },
    )
