"""Net-tree based (1+ε)-spanner with bounded degree for doubling metrics.

This is the substrate behind Theorem 2 of the paper ([CGMZ05, GR08c]): every
doubling metric admits a ``(1+ε)``-spanner with degree ``ε^{-O(ddim)}``,
constructible in ``ε^{-O(ddim)} · n log n`` time.  Algorithm
``Approximate-Greedy`` (Section 5) starts from such a spanner, so one is
implemented here.

Construction (the standard net-tree spanner):

1. Build a hierarchy of nested nets ``N_0 ⊇ N_1 ⊇ …`` at scales halving from
   the diameter down to the minimum interpoint distance
   (:class:`~repro.metric.nets.NetHierarchy`).
2. At every level with scale ``r``, connect every pair of net points at
   distance at most ``γ · r`` where ``γ = 4.5 + 16/ε`` (the *cross edges*);
   edge weights are the true metric distances.  (The constant accounts for
   the factor-2 granularity of the scales: a pair at distance ``d`` is
   handled at the coarsest level whose scale ``r`` is at most ``εd/8`` — so
   ``r ≥ εd/16`` — where its net ancestors are at distance at most
   ``d + 4r ≤ γ·r`` and the detour through them costs at most ``8r ≤ εd``.)
3. The union over all levels is a ``(1+ε)``-spanner.

The per-level degree of a net point is bounded by a packing argument
(Lemma 1): within a ball of radius ``γ·r`` there are at most
``(2γ)^{O(ddim)}`` net points at mutual distance more than ``r``.  The naive
union over levels multiplies this by the number of levels a point is a net
centre of; the classical constructions remove this factor with an extra
degree-redistribution step.  We omit that step, so this implementation
does not enforce the degree bound: on uniform 2-D points (seed 7) with
ε = 0.5 the measured maximum degree is 98 at n = 100 and 186 at n = 200,
and the spanner keeps 4,551 of the 4,950 pairs at n = 100 — near-complete
at every n the tests reach.
"""

from __future__ import annotations


from repro.errors import InvalidStretchError
from repro.core.spanner import Spanner
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.metric.nets import NetHierarchy


def bounded_degree_spanner(
    metric: FiniteMetric,
    epsilon: float,
    *,
    scale_factor: float = 0.5,
) -> Spanner:
    """Build the net-tree ``(1+ε)``-spanner of ``metric``.

    Parameters
    ----------
    metric:
        The finite metric space ``(M, δ)``.
    epsilon:
        The stretch slack, ``0 < ε < 1``; the result is a ``(1+ε)``-spanner.
    scale_factor:
        Ratio between consecutive net scales (default ½, the textbook choice).

    Returns
    -------
    Spanner
        A spanner whose base graph is the complete graph of the metric, with
        metadata recording the hierarchy depth and the cross-edge radius
        multiplier γ.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidStretchError(f"epsilon must lie in (0, 1), got {epsilon}")

    base = MetricClosure(metric)
    subgraph = base.empty_spanning_subgraph()

    hierarchy = NetHierarchy(metric, scale_factor=scale_factor)
    gamma = 4.5 + 16.0 / epsilon

    for level in hierarchy.levels:
        centres = level.centres
        scale = level.scale
        if scale <= 0.0:
            continue
        reach = gamma * scale
        for i, p in enumerate(centres):
            for q in centres[i + 1:]:
                d = metric.distance(p, q)
                if 0.0 < d <= reach and not subgraph.has_edge(p, q):
                    subgraph.add_edge(p, q, d)

    # The finest level contains every point, so connectivity is guaranteed:
    # consecutive points at the minimum scale are joined whenever they are
    # within γ times the smallest scale, and coarser levels bridge the rest.
    spanner = Spanner(
        base=base,
        subgraph=subgraph,
        stretch=1.0 + epsilon,
        algorithm="net-tree-bounded-degree",
        metadata={
            "levels": float(hierarchy.depth),
            "gamma": gamma,
            "epsilon": epsilon,
        },
    )
    return spanner


def theoretical_degree_bound(epsilon: float, ddim: float) -> float:
    """Dominant term of the Theorem 2 degree bound: ``ε^{-O(ddim)}``.

    Returned without the hidden constant; used by the experiments to annotate
    measured degrees.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidStretchError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (1.0 / epsilon) ** max(ddim, 1.0)

