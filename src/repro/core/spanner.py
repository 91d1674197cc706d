"""The :class:`Spanner` result container and its quality measures.

Every spanner construction in this library returns a :class:`Spanner`, which
bundles the spanner subgraph together with the graph (or metric) it spans and
exposes the four quantities the paper cares about:

* **size** — number of edges ``|H|``,
* **weight** — total edge weight ``w(H)``,
* **lightness** — ``Ψ(H) = w(H) / w(MST(G))`` (Section 2),
* **degree** — maximum degree ``Δ(H)``,

plus stretch verification (exact, or sampled for large instances).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import StretchViolationError
from repro.graph.mst import mst_weight
from repro.graph.shortest_paths import pair_distance, single_source_distances
from repro.graph.weighted_graph import Vertex, WeightedGraph


@dataclass(frozen=True)
class SpannerStatistics:
    """A snapshot of the measurable properties of a spanner.

    Attributes
    ----------
    vertices, edges:
        Number of vertices and edges of the spanner.
    weight:
        Total edge weight ``w(H)``.
    mst_weight:
        ``w(MST(G))`` of the spanned graph.
    lightness:
        ``weight / mst_weight``.
    max_degree:
        Maximum degree of the spanner.
    stretch_bound:
        The stretch parameter the construction was asked for.
    measured_stretch:
        The worst stretch actually measured (exact or sampled), when computed.
    """

    vertices: int
    edges: int
    weight: float
    mst_weight: float
    lightness: float
    max_degree: int
    stretch_bound: float
    measured_stretch: Optional[float] = None

    def as_row(self) -> dict[str, float]:
        """Return the statistics as a flat dictionary (one table row)."""
        row: dict[str, float] = {
            "n": float(self.vertices),
            "edges": float(self.edges),
            "weight": self.weight,
            "mst_weight": self.mst_weight,
            "lightness": self.lightness,
            "max_degree": float(self.max_degree),
            "stretch_bound": self.stretch_bound,
        }
        if self.measured_stretch is not None:
            row["measured_stretch"] = self.measured_stretch
        return row


@dataclass
class Spanner:
    """A spanner ``H`` of a base graph ``G`` with stretch parameter ``t``.

    Attributes
    ----------
    base:
        The graph being spanned.  For metric spanners this is the complete
        graph over the metric's points (the paper's view of a metric space).
    subgraph:
        The spanner ``H``: a subgraph of ``base`` over the same vertex set.
    stretch:
        The stretch parameter ``t`` the construction targeted.
    algorithm:
        Human-readable name of the construction that produced the spanner.
    metadata:
        Free-form construction statistics (distance queries, buckets, ...).
    """

    base: WeightedGraph
    subgraph: WeightedGraph
    stretch: float
    algorithm: str = "unknown"
    metadata: dict[str, float] = field(default_factory=dict)
    _mst_weight_cache: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Size / weight / degree
    # ------------------------------------------------------------------
    @property
    def number_of_edges(self) -> int:
        """The size ``|H|`` of the spanner."""
        return self.subgraph.number_of_edges

    @property
    def weight(self) -> float:
        """The total weight ``w(H)``."""
        return self.subgraph.total_weight()

    @property
    def max_degree(self) -> int:
        """The maximum degree ``Δ(H)``."""
        return self.subgraph.max_degree()

    def base_mst_weight(self) -> float:
        """Return ``w(MST(base))``, computed once and cached on the spanner.

        Spanner constructions never mutate their base graph, so the MST
        weight is a constant of the instance; lightness is queried repeatedly
        by the experiments and for metric bases each recomputation is an
        ``O(n²)`` dense-Prim pass.
        """
        if self._mst_weight_cache is None:
            self._mst_weight_cache = mst_weight(self.base)
        return self._mst_weight_cache

    def lightness(self) -> float:
        """Return ``Ψ(H) = w(H) / w(MST(base))``."""
        base_mst = self.base_mst_weight()
        if base_mst == 0.0:
            return math.inf if self.weight > 0 else 1.0
        return self.weight / base_mst

    # ------------------------------------------------------------------
    # Stretch
    # ------------------------------------------------------------------
    def stretch_of_pair(self, u: Vertex, v: Vertex) -> float:
        """Return ``δ_H(u, v) / δ_G(u, v)`` for a single pair."""
        original = pair_distance(self.base, u, v)
        if original == 0.0:
            return 1.0
        spanner_distance = pair_distance(self.subgraph, u, v)
        return spanner_distance / original

    def max_stretch_over_edges(self) -> float:
        """Return the maximum stretch over the *edges* of the base graph.

        By the standard argument quoted in Section 2, bounding the stretch on
        the base graph's edges bounds it on all vertex pairs, so this is an
        exact stretch measurement at the cost of one bounded query per edge.
        """
        worst = 1.0
        for u, v, weight in self.base.edges():
            spanner_distance = pair_distance(self.subgraph, u, v)
            worst = max(worst, spanner_distance / weight)
        return worst

    def max_stretch_exact(self) -> float:
        """Return the maximum stretch over all vertex pairs (all-pairs Dijkstra)."""
        worst = 1.0
        vertices = list(self.base.vertices())
        for source in vertices:
            base_distances = single_source_distances(self.base, source)
            spanner_distances = single_source_distances(self.subgraph, source)
            for target, original in base_distances.items():
                if target == source or original == 0.0:
                    continue
                worst = max(worst, spanner_distances.get(target, math.inf) / original)
        return worst

    def max_stretch_sampled(self, samples: int, *, seed: Optional[int] = None) -> float:
        """Return the maximum stretch over ``samples`` random vertex pairs."""
        rng = random.Random(seed)
        vertices = list(self.base.vertices())
        worst = 1.0
        for _ in range(samples):
            u, v = rng.sample(vertices, 2)
            worst = max(worst, self.stretch_of_pair(u, v))
        return worst

    def verify_stretch(self, *, tolerance: float = 1e-9) -> None:
        """Raise :class:`StretchViolationError` if any base edge is stretched beyond ``t``."""
        for u, v, weight in self.base.edges():
            spanner_distance = pair_distance(self.subgraph, u, v)
            if spanner_distance > self.stretch * weight * (1.0 + tolerance):
                raise StretchViolationError(u, v, spanner_distance, weight, self.stretch)

    def is_valid(self, *, tolerance: float = 1e-9) -> bool:
        """Return True if the spanner satisfies its stretch guarantee."""
        try:
            self.verify_stretch(tolerance=tolerance)
        except StretchViolationError:
            return False
        return True

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def repair(
        self,
        failed_edges: "object",
        *,
        oracle: str = "cached",
        verify: bool = True,
        cross_check: bool = False,
    ):
        """Patch this spanner around failed base edges; see :mod:`repro.core.repair`.

        Replays the greedy suffix of the canonical edge order over the
        surviving candidate edges (warm-started with the untouched prefix),
        re-certifies the result, and returns a
        :class:`~repro.core.repair.RepairResult` whose ``spanner`` is the
        greedy ``t``-spanner of the surviving graph — bit-identical to a
        full rebuild (set ``cross_check=True`` to measure that).
        Only defined for greedy-built spanners
        (:class:`~repro.errors.UnrepairableSpannerError` otherwise).
        """
        from repro.core.repair import repair_spanner

        return repair_spanner(
            self,
            failed_edges,
            oracle=oracle,
            verify=verify,
            cross_check=cross_check,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def statistics(self, *, measure_stretch: bool = False) -> SpannerStatistics:
        """Return a :class:`SpannerStatistics` snapshot of this spanner."""
        base_mst = self.base_mst_weight()
        weight = self.weight
        lightness = weight / base_mst if base_mst > 0 else math.inf
        measured = self.max_stretch_over_edges() if measure_stretch else None
        return SpannerStatistics(
            vertices=self.subgraph.number_of_vertices,
            edges=self.number_of_edges,
            weight=weight,
            mst_weight=base_mst,
            lightness=lightness,
            max_degree=self.max_degree,
            stretch_bound=self.stretch,
            measured_stretch=measured,
        )

    def __repr__(self) -> str:
        return (
            f"Spanner(algorithm={self.algorithm!r}, t={self.stretch}, "
            f"edges={self.number_of_edges}, weight={self.weight:.4g})"
        )
