"""Algorithm ``Approximate-Greedy`` for doubling metrics (Section 5 of the paper).

The exact greedy spanner has two drawbacks in metric spaces (Section 5): it
examines all ``n(n-1)/2`` interpoint distances, and in doubling metrics its
degree may be unbounded.  Algorithm ``Approximate-Greedy`` ([DN97, GLN02],
sketched in Section 5.1) fixes both:

1. Build a bounded-degree ``√(t/t')``-spanner ``G' = (M, E', δ)`` of the
   input metric.  Two substrates are available: the net-tree spanner of
   :mod:`repro.spanners.bounded_degree` (works for every doubling metric —
   the Theorem 2 substrate of the paper's Section 5) and the Θ-graph (planar
   Euclidean metrics only — the substrate the original Euclidean algorithm of
   [DN97, GLN02] builds on).  The Θ-graph's constants are far smaller, so the
   Euclidean scaling experiments use it.
2. Run greedy with stretch ``√(t·t')`` over the edges of ``G'``.  Section 5
   allows the distance queries of this simulation to overestimate (never to
   underestimate); exact answers are the zero-error case, so this module
   runs the exact greedy loop of :func:`~repro.core.greedy.greedy_spanner`
   on ``G'`` with its cached coverage oracle.

The output is therefore exactly ``Greedy_{√(t·t')}(G')``, a special case of
Section 5's algorithm.  It is a subgraph of ``G'`` (so its degree is bounded
by ``G'``'s) and a ``√(t·t')``-spanner of ``G'``, hence a ``t``-spanner of
the metric.  The cluster graphs of [GLN02], which serve only the RAM-model
``O(n log n)`` running time, are not implemented: the exact loop on ``G'``
beat them on every row measured (0.7 s against 4.5 s on 1000 uniform
planar points, ε = 0.5, Θ-graph base; the table is in
``docs/PERFORMANCE.md``).  The lightness is what Section 5.2 (Lemma 13 /
Theorem 6) bounds; the experiments measure it against the exact greedy
spanner's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidStretchError
from repro.core.greedy import greedy_spanner
from repro.core.spanner import Spanner
from repro.metric.base import FiniteMetric
from repro.spanners.bounded_degree import bounded_degree_spanner


@dataclass(frozen=True)
class ApproximateGreedyParameters:
    """The derived parameters of one Approximate-Greedy run.

    Attributes
    ----------
    t:
        The overall target stretch ``1 + ε``.
    base_stretch:
        The stretch of the bounded-degree base spanner ``G'``
        (the paper's ``√(t/t')``).
    simulation_stretch:
        The stretch used by the greedy simulation on ``G'``
        (the paper's ``√(t·t')``); the product
        ``base_stretch · simulation_stretch`` is at most ``t``.
    """

    t: float
    base_stretch: float
    simulation_stretch: float


def derive_parameters(epsilon: float) -> ApproximateGreedyParameters:
    """Derive the Approximate-Greedy parameters for target stretch ``1 + ε``.

    The split follows the paper's remark after Lemma 11: the output spanner is
    a ``√(t·t')``-spanner of ``G'``, which is a ``√(t/t')``-spanner of the
    metric, with ``t' = 1 + O(ε) < t``.  We take ``t' = 1 + ε/2`` so both
    factors are ``≈ 1 + ε/4`` and their product is at most ``1 + ε``.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidStretchError(f"epsilon must lie in (0, 1), got {epsilon}")
    t = 1.0 + epsilon
    t_prime = 1.0 + epsilon / 2.0
    return ApproximateGreedyParameters(
        t=t,
        base_stretch=math.sqrt(t / t_prime),
        simulation_stretch=math.sqrt(t * t_prime),
    )


def approximate_greedy_spanner(
    metric: FiniteMetric,
    epsilon: float,
    *,
    base: str = "net-tree",
) -> Spanner:
    """Run Algorithm Approximate-Greedy on ``metric`` with target stretch ``1 + ε``.

    Parameters
    ----------
    metric:
        The input metric space.
    epsilon:
        Target stretch slack (the output is a ``(1+ε)``-spanner).
    base:
        Which bounded-degree base spanner ``G'`` to start from: ``"net-tree"``
        (any doubling metric; the paper's Theorem 2 substrate) or ``"theta"``
        (planar Euclidean metrics; the substrate of the original Euclidean
        algorithm of [DN97, GLN02], with far smaller constants).

    Returns a :class:`Spanner` whose base graph is the metric's complete graph
    (so lightness and stretch are measured against the metric itself, as in
    Theorem 6).  Metadata records the base spanner's size and degree, the
    stretch split, and the greedy loop's counters on ``G'``
    (``distance_queries``, ``dijkstra_settles``, ``edges_added``, ...).
    """
    params = derive_parameters(epsilon)

    # Step 1: bounded-degree base spanner G' with stretch base_stretch = 1 + ε'.
    base_epsilon = max(params.base_stretch - 1.0, 1e-9)
    base_spanner = _build_base_spanner(metric, base, base_epsilon)
    base_graph = base_spanner.subgraph

    # Step 2: greedy at the simulation stretch over G'.
    simulated = greedy_spanner(base_graph, params.simulation_stretch)

    metadata = {
        "base_edges": float(base_graph.number_of_edges),
        "base_max_degree": float(base_graph.max_degree()),
        "base_stretch": params.base_stretch,
        "simulation_stretch": params.simulation_stretch,
    }
    metadata.update(simulated.metadata)
    return Spanner(
        base=base_spanner.base,  # the metric's complete graph
        subgraph=simulated.subgraph,
        stretch=params.t,
        algorithm="approximate-greedy",
        metadata=metadata,
    )


def _build_base_spanner(metric: FiniteMetric, base: str, base_epsilon: float) -> Spanner:
    """Build the bounded-degree base spanner ``G'`` of the requested kind."""
    if base == "net-tree":
        return bounded_degree_spanner(metric, base_epsilon)
    if base == "theta":
        from repro.metric.euclidean import EuclideanMetric
        from repro.spanners.theta_graph import cones_for_stretch, theta_graph_spanner

        if not isinstance(metric, EuclideanMetric) or metric.dimension != 2:
            raise InvalidStretchError(
                "the 'theta' base spanner requires a 2-dimensional Euclidean metric"
            )
        return theta_graph_spanner(metric, cones_for_stretch(1.0 + base_epsilon))
    raise ValueError(f"unknown base spanner {base!r}; expected 'net-tree' or 'theta'")
