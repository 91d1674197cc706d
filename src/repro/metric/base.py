"""Finite metric spaces.

Sections 4 and 5 of the paper work over metric spaces ``(M, δ)``; a metric
space is viewed as the complete weighted graph on its points (Section 2).
This module defines the abstract interface all metrics implement plus an
explicit (distance-matrix backed) implementation, and provides the metric
axioms checker used throughout the test suite.
"""

from __future__ import annotations

import abc
import itertools
import math
from collections.abc import Hashable, Iterable, Sequence

from repro.errors import EmptyMetricError, MetricAxiomError
from repro.graph.weighted_graph import WeightedGraph

Point = Hashable


class FiniteMetric(abc.ABC):
    """Abstract base class for a finite metric space ``(M, δ)``.

    Subclasses must provide the point collection and the pairwise distance
    function; everything else (complete-graph view, diameter, separation,
    aspect ratio, axiom checking) is derived here.
    """

    @abc.abstractmethod
    def points(self) -> Sequence[Point]:
        """Return the points of the metric space (a stable, indexable sequence)."""

    @abc.abstractmethod
    def distance(self, p: Point, q: Point) -> float:
        """Return the distance ``δ(p, q)``."""

    @property
    def point_tuple(self) -> tuple[Point, ...]:
        """The points as a tuple, computed once and cached on the instance.

        Metric spaces are immutable, so the point collection never changes;
        the derived quantities (``size``, ``pairs``, ``diameter``, ...) and the
        streaming pipeline query the point set inside hot loops, where
        re-calling the abstract :meth:`points` per access is measurable.
        """
        cached = getattr(self, "_point_tuple_cache", None)
        if cached is None:
            cached = tuple(self.points())
            self._point_tuple_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """The number of points ``n``."""
        return len(self.point_tuple)

    def pairs(self) -> Iterable[tuple[Point, Point]]:
        """Iterate over all unordered pairs of distinct points."""
        return itertools.combinations(self.point_tuple, 2)

    def diameter(self) -> float:
        """Return the maximum pairwise distance (0 for fewer than two points)."""
        return max((self.distance(p, q) for p, q in self.pairs()), default=0.0)

    def minimum_distance(self) -> float:
        """Return the minimum distance between distinct points (inf if < 2 points)."""
        return min((self.distance(p, q) for p, q in self.pairs()), default=math.inf)

    def aspect_ratio(self) -> float:
        """Return the spread Φ = diameter / minimum distance (1.0 for tiny spaces)."""
        smallest = self.minimum_distance()
        if not math.isfinite(smallest) or smallest == 0.0:
            return 1.0
        return self.diameter() / smallest

    def ball(self, centre: Point, radius: float) -> list[Point]:
        """Return all points within distance ``radius`` of ``centre`` (inclusive)."""
        return [p for p in self.point_tuple if self.distance(centre, p) <= radius]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def complete_graph(self) -> WeightedGraph:
        """Return the complete weighted graph ``(V, V choose 2, δ)`` over the points.

        This is the graph on which the metric greedy spanner runs
        (Section 2 of the paper views a metric space as a complete graph).
        Pairs at distance 0 are not representable as weighted edges and raise
        :class:`MetricAxiomError`.
        """
        if self.size == 0:
            raise EmptyMetricError("cannot build the complete graph of an empty metric")
        graph = WeightedGraph(vertices=self.point_tuple)
        for p, q in self.pairs():
            d = self.distance(p, q)
            if d <= 0.0:
                raise MetricAxiomError(
                    f"distinct points {p!r}, {q!r} at non-positive distance {d}"
                )
            graph.add_edge(p, q, d)
        return graph

    def distance_matrix(self) -> dict[Point, dict[Point, float]]:
        """Return the full symmetric distance matrix as nested dictionaries."""
        pts = self.point_tuple
        matrix: dict[Point, dict[Point, float]] = {p: {} for p in pts}
        for p in pts:
            matrix[p][p] = 0.0
        for p, q in self.pairs():
            d = self.distance(p, q)
            matrix[p][q] = d
            matrix[q][p] = d
        return matrix

    def restrict(self, subset: Iterable[Point]) -> "ExplicitMetric":
        """Return the sub-metric induced on ``subset`` (as an explicit metric)."""
        points = list(subset)
        matrix: dict[tuple[Point, Point], float] = {}
        for p, q in itertools.combinations(points, 2):
            matrix[(p, q)] = self.distance(p, q)
        return ExplicitMetric(points, matrix)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_axioms(self, *, tolerance: float = 1e-9) -> None:
        """Verify the metric axioms, raising :class:`MetricAxiomError` on failure.

        Checks non-negativity, identity of indiscernibles (distinct points at
        positive distance), symmetry and the triangle inequality.  Intended for
        tests and small spaces — the triangle-inequality check is ``O(n³)``.
        """
        pts = self.point_tuple
        for p in pts:
            if abs(self.distance(p, p)) > tolerance:
                raise MetricAxiomError(f"δ({p!r}, {p!r}) = {self.distance(p, p)} ≠ 0")
        for p, q in self.pairs():
            d_pq = self.distance(p, q)
            d_qp = self.distance(q, p)
            if d_pq <= 0:
                raise MetricAxiomError(f"δ({p!r}, {q!r}) = {d_pq} is not positive")
            if abs(d_pq - d_qp) > tolerance:
                raise MetricAxiomError(
                    f"asymmetric distances δ({p!r},{q!r})={d_pq}, δ({q!r},{p!r})={d_qp}"
                )
        for p, q, r in itertools.permutations(pts, 3):
            if self.distance(p, r) > self.distance(p, q) + self.distance(q, r) + tolerance:
                raise MetricAxiomError(
                    f"triangle inequality violated on ({p!r}, {q!r}, {r!r})"
                )

    def is_metric(self, *, tolerance: float = 1e-9) -> bool:
        """Return True if :meth:`check_axioms` passes."""
        try:
            self.check_axioms(tolerance=tolerance)
        except MetricAxiomError:
            return False
        return True


class ExplicitMetric(FiniteMetric):
    """A metric given by an explicit distance table.

    Parameters
    ----------
    points:
        The points of the space.
    distances:
        A mapping from unordered pairs (stored under either orientation) to
        distances.  Distances not present default to looking up the reversed
        pair; a completely missing pair raises ``KeyError`` on access.
    validate:
        When True (default False), run :meth:`check_axioms` at construction.
    """

    def __init__(
        self,
        points: Iterable[Point],
        distances: dict[tuple[Point, Point], float],
        *,
        validate: bool = False,
    ) -> None:
        self._points: list[Point] = list(points)
        self._index = {p: i for i, p in enumerate(self._points)}
        if len(self._index) != len(self._points):
            raise MetricAxiomError("duplicate points in metric")
        self._distances: dict[tuple[Point, Point], float] = {}
        for (p, q), d in distances.items():
            self._distances[(p, q)] = float(d)
            self._distances[(q, p)] = float(d)
        if validate:
            self.check_axioms()

    def points(self) -> Sequence[Point]:
        return self._points

    def distance(self, p: Point, q: Point) -> float:
        if p == q:
            return 0.0
        return self._distances[(p, q)]

    @classmethod
    def from_matrix(
        cls, matrix: Sequence[Sequence[float]], *, validate: bool = False
    ) -> "ExplicitMetric":
        """Build a metric on points ``0 .. n-1`` from a square distance matrix."""
        n = len(matrix)
        distances: dict[tuple[Point, Point], float] = {}
        for i in range(n):
            if len(matrix[i]) != n:
                raise MetricAxiomError("distance matrix is not square")
            for j in range(i + 1, n):
                distances[(i, j)] = float(matrix[i][j])
        return cls(range(n), distances, validate=validate)

    def __repr__(self) -> str:
        return f"ExplicitMetric(n={self.size})"


class ScaledMetric(FiniteMetric):
    """A metric obtained by multiplying every distance of a base metric by a factor."""

    def __init__(self, base: FiniteMetric, factor: float) -> None:
        if factor <= 0:
            raise MetricAxiomError("scaling factor must be positive")
        self._base = base
        self._factor = float(factor)

    def points(self) -> Sequence[Point]:
        return self._base.points()

    def distance(self, p: Point, q: Point) -> float:
        return self._factor * self._base.distance(p, q)

    def __repr__(self) -> str:
        return f"ScaledMetric(n={self.size}, factor={self._factor})"
