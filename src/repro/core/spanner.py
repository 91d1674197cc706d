"""The :class:`Spanner` result container and its quality measures.

Every spanner construction in this library returns a :class:`Spanner`, which
bundles the spanner subgraph together with the graph (or metric) it spans and
exposes the four quantities the paper cares about:

* **size** — number of edges ``|H|``,
* **weight** — total edge weight ``w(H)``,
* **lightness** — ``Ψ(H) = w(H) / w(MST(G))`` (Section 2),
* **degree** — maximum degree ``Δ(H)``,

plus stretch verification.  The stretch checks run on the batch edge check
of :mod:`repro.spanners.verification` (imported lazily: it imports this
module); by Section 2, checking the base edges bounds every vertex pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import StretchViolationError
from repro.graph.mst import mst_weight
from repro.graph.shortest_paths import pair_distance
from repro.graph.weighted_graph import WeightedGraph


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
        The exact maximum stretch over the base edges (``inf`` if the
        spanner disconnects one), when computed.
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
    # Stretch (checked on the base edges by repro.spanners.verification)
    # ------------------------------------------------------------------
    def verify_stretch(self, *, tolerance: float = 1e-9) -> None:
        """Raise :class:`StretchViolationError` if any base edge is stretched beyond ``t``.

        The error names the edge check's witness — the first failing base
        edge — with its exact spanner distance.
        """
        from repro.spanners.verification import verify_spanner_edges_detailed

        witness = verify_spanner_edges_detailed(
            self.subgraph, self.base, self.stretch, tolerance=tolerance
        ).witness
        if witness is not None:
            u, v, weight = witness
            spanner_distance = pair_distance(self.subgraph, u, v)
            raise StretchViolationError(u, v, spanner_distance, weight, self.stretch)

    def is_valid(self, *, tolerance: float = 1e-9) -> bool:
        """Return True if the spanner satisfies its stretch guarantee."""
        from repro.spanners.verification import verify_spanner_edges

        return verify_spanner_edges(self.subgraph, self.base, self.stretch, tolerance=tolerance)

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
        measured = None
        if measure_stretch:
            # At t = inf the edge check never prunes: its max_stretch is the
            # exact max edge stretch, which bounds every pair (Section 2).
            from repro.spanners.verification import verify_spanner_edges_detailed

            measured = verify_spanner_edges_detailed(
                self.subgraph, self.base, math.inf
            ).max_stretch
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
