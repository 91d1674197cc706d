"""Lightness accounting and the theoretical bounds the paper quotes.

Lightness is the normalised weight ``Ψ(H) = w(H) / w(MST(G))`` (Section 2).
Besides the basic measurement helpers, this module exposes the *predicted*
bounds from the results the paper builds on, so the experiments can print
"measured vs. bound" columns:

* Althöfer et al.: greedy ``(2k-1)``-spanner has ``O(n^{1+1/k})`` edges,
* Chechik–Wulff-Nilsen (Theorem 1): lightness ``O(n^{1/k} · ε^{-(3+2/k)})``
  for stretch ``(2k-1)(1+ε)``, which by Theorem 4 transfers to the greedy
  spanner (Corollary 4),
* Smid / Gottlieb (Theorem 3 + Corollary 10): ``O(n)`` edges and constant
  lightness for greedy ``(1+ε)``-spanners of doubling metrics.

The bounds are asymptotic; the helpers return the *dominant term without the
hidden constant*, which is exactly what the shape-comparison experiments
need (they check growth rates and ratios, not absolute constants).
"""

from __future__ import annotations

import math

from repro.graph.mst import mst_weight_indexed
from repro.graph.weighted_graph import WeightedGraph


def lightness(subgraph: WeightedGraph, base: WeightedGraph) -> float:
    """Return ``w(subgraph) / w(MST(base))``.

    The base MST weight comes from the indexed-Prim fast path (dense Prim
    for lazy metric closures); it differs from the Kruskal-backed
    :func:`~repro.graph.mst.mst_weight` only in the summation order of the
    tree weights.
    """
    base_mst = mst_weight_indexed(base)
    if base_mst == 0.0:
        return math.inf if subgraph.total_weight() > 0 else 1.0
    return subgraph.total_weight() / base_mst


def normalized_size(subgraph: WeightedGraph) -> float:
    """Return ``|E(H)| / n``, the edges-per-vertex density of the spanner."""
    n = subgraph.number_of_vertices
    if n == 0:
        return 0.0
    return subgraph.number_of_edges / n


# ---------------------------------------------------------------------------
# Theoretical bounds (dominant terms, constants omitted)
# ---------------------------------------------------------------------------
def althofer_size_bound(n: int, k: int) -> float:
    """Dominant term of the Althöfer et al. size bound: ``n^{1 + 1/k}``.

    The greedy ``(2k-1)``-spanner of any n-vertex weighted graph has
    ``O(n^{1+1/k})`` edges (girth argument); this bound is what experiment E3
    plots the measured edge counts against.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return float(n) ** (1.0 + 1.0 / k)


def chechik_wulffnilsen_lightness_bound(n: int, k: int, epsilon: float) -> float:
    """Dominant term of the Theorem 1 lightness bound: ``n^{1/k} · ε^{-(3 + 2/k)}``.

    By Theorem 4 / Corollary 4 the same bound applies to the greedy
    ``(2k-1)(1+ε)``-spanner.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return (float(n) ** (1.0 / k)) * (1.0 / epsilon) ** (3.0 + 2.0 / k)


def smid_doubling_lightness_bound(n: int, epsilon: float, ddim: float) -> float:
    """Dominant term of the pre-Gottlieb lightness bound for doubling metrics: ``log n``.

    [Smi09]: the greedy ``(1+ε)``-spanner of an n-point doubling metric has
    lightness ``O(log n)`` (hiding ``(1/ε)^{O(ddim)}``).  Corollary 10 of the
    paper improves this to a constant independent of n; experiment E4 compares
    measured lightness against both shapes.
    """
    if n < 2:
        return 1.0
    return math.log2(n)


def gottlieb_lightness_bound(epsilon: float, ddim: float) -> float:
    """Dominant term of the Theorem 3 / Corollary 10 lightness bound: ``(ddim/ε)^{ddim}``.

    Constant in ``n`` — the content of the paper's Corollary 10 is that the
    greedy spanner inherits this n-independent bound.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    base = max(ddim, 1.0) / epsilon
    return base ** max(ddim, 1.0)


def erdos_girth_size_lower_bound(n: int, k: int) -> float:
    """Dominant term of the girth-conjecture size lower bound: ``n^{1 + 1/k}``.

    Assuming Erdős' girth conjecture there exist graphs with
    ``Ω(n^{1+1/k})`` edges and girth ``2k + 2``; any ``(2k-1)``-spanner of such
    a graph must keep every edge, so the Althöfer bound is tight.
    """
    return althofer_size_bound(n, k)
