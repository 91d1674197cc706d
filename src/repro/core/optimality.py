"""Executable versions of the paper's optimality lemmas and observations.

The paper's contribution is a chain of small structural facts; each is turned
here into a checker that can be run on concrete instances:

* **Observation 2** — the greedy spanner contains all edges of some MST of
  the input graph: :func:`verify_observation2`.
* **Lemma 3** — *the only ``t``-spanner of the greedy ``t``-spanner is
  itself*: :func:`verify_lemma3_self_spanner` (exhaustive: no proper subgraph
  of the greedy spanner is a ``t``-spanner of it) and the cheaper
  :func:`greedy_is_fixed_point` (re-running greedy on its own output changes
  nothing).
* **Observation 6** — a graph and its induced metric share an MST:
  :func:`verify_observation6`.
* **Lemma 7** — any ``t``-spanner of the metric ``M_H`` induced by the greedy
  spanner ``H`` weighs at least ``w(H)``: :func:`verify_lemma7_weight`.
* **Lemma 8** — for ``t < 2``, any ``t``-spanner of ``M_H`` has at least
  ``|H|`` edges: :func:`verify_lemma8_size`.
* **Observation 12** — ``w(MST(H')) ≤ t · w(MST(H))`` for any ``t``-spanner
  ``H'`` of ``H``: :func:`verify_observation12`.
* **Theorem 4 / Theorem 5** — the existential-optimality statements
  themselves; :func:`existential_optimality_certificate` packages the
  quantities the proofs compare so the experiments can print them.
* **Figure 1** — :func:`analyse_figure1` reproduces the Petersen+star example
  that separates universal from existential optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.spanner import Spanner
from repro.errors import SpannerError
from repro.graph.generators import figure1_instance
from repro.graph.mst import kruskal_mst, mst_weight_indexed
from repro.graph.shortest_paths import shortest_path
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.metric.graph_metric import GraphMetric


# ---------------------------------------------------------------------------
# Observation 2
# ---------------------------------------------------------------------------
def verify_observation2(spanner: Spanner) -> bool:
    """Check that the greedy spanner contains all edges of some MST of its base graph.

    Uses the Kruskal MST with the same deterministic tie-breaking as the
    greedy examination order, which is precisely the MST the greedy run
    commits to.
    """
    mst = kruskal_mst(spanner.base)
    return all(spanner.subgraph.has_edge(u, v) for u, v, _ in mst.edges())


# ---------------------------------------------------------------------------
# Lemma 3
# ---------------------------------------------------------------------------
def greedy_is_fixed_point(spanner: Spanner) -> bool:
    """Check that re-running greedy on the greedy spanner returns the same graph.

    This is the algorithmic face of Lemma 3: since the only ``t``-spanner of
    ``H`` is ``H`` itself, the greedy algorithm applied to ``H`` cannot drop
    any edge.
    """
    rerun = greedy_spanner(spanner.subgraph, spanner.stretch)
    return rerun.subgraph.same_edges(spanner.subgraph)


def verify_lemma3_self_spanner(spanner: Spanner) -> bool:
    """Exhaustively check Lemma 3 on a concrete greedy spanner.

    Lemma 3 says a ``t``-spanner of the greedy ``t``-spanner ``H`` cannot miss
    any edge of ``H``.  Equivalently: for every edge ``e`` of ``H``, the graph
    ``H - e`` is *not* a ``t``-spanner of ``H``.  (Any ``t``-spanner missing
    ``e`` is a subgraph of ``H - e`` and spans at most as well, so checking the
    single-edge removals covers every possible strict subgraph.)

    It is the edge check of :mod:`repro.spanners.verification` run on
    ``(H, H)`` one edge at a time: ``(u, v, w)`` is taken out of ``u``'s
    weight-sorted row for one search from ``u`` to ``v``, and ``e`` is
    redundant exactly when that search passes.  The own-edge shortcut
    cannot see the removed entry, and ``v``'s row (which still holds
    ``u``) is only read after ``v`` settles, when the search has returned.
    One search per edge, not per source: removing all of ``u``'s edges at
    once would miss detours that leave ``u`` by another of them.
    """
    from repro.spanners.verification import VerificationEngine, _verify_one_source

    t = spanner.stretch
    engine = VerificationEngine(spanner.subgraph, spanner.subgraph)
    rows, id_of = engine.sub_rows, engine.id_of
    for u, v, weight in spanner.subgraph.edges():
        uid, vid = id_of[u], id_of[v]
        row = rows[uid]
        slot = row.index((weight, vid))
        del row[slot]
        try:
            failed, _, _ = _verify_one_source(engine, uid, [vid], [weight], t, 1e-12)
        finally:
            row.insert(slot, (weight, vid))
        if failed is None:
            # H - e keeps e within stretch, so H - e would be a t-spanner
            # of H, contradicting Lemma 3.
            return False
    return True


# ---------------------------------------------------------------------------
# Observation 6 and Observation 12
# ---------------------------------------------------------------------------
def verify_observation6(graph: WeightedGraph, *, tolerance: float = 1e-9) -> bool:
    """Check that the graph and its induced metric ``M_G`` have MSTs of equal weight.

    Observation 6 states any MST of ``M_G`` is a spanning tree of ``G`` (and
    therefore the two share a common MST); the measurable consequence is that
    the MST weights coincide, which is what the experiments rely on.  The
    graph side runs on the indexed-Prim fast path; the metric closure keeps
    its dense-Prim dispatch.
    """
    metric = GraphMetric(graph)
    metric_graph = MetricClosure(metric)
    graph_mst = mst_weight_indexed(graph)
    return abs(graph_mst - mst_weight_indexed(metric_graph)) <= tolerance * max(1.0, graph_mst)


def verify_observation12(
    base: WeightedGraph, spanner_graph: WeightedGraph, t: float, *, tolerance: float = 1e-9
) -> bool:
    """Check Observation 12: ``w(MST(H')) ≤ t · w(MST(H))`` for a ``t``-spanner ``H'`` of ``H``."""
    return mst_weight_indexed(spanner_graph) <= t * mst_weight_indexed(base) * (1.0 + tolerance)


# ---------------------------------------------------------------------------
# Lemma 7 and Lemma 8
# ---------------------------------------------------------------------------
def project_metric_spanner_onto_graph(
    metric_spanner: WeightedGraph, graph: WeightedGraph
) -> WeightedGraph:
    """Replace each metric-spanner edge by a shortest path in ``graph`` (the ``H''`` construction).

    This is the transformation used in the proofs of Lemma 7 and Lemma 13: an
    edge of a spanner of the induced metric ``M_H`` corresponds to a shortest
    path of ``H``; taking the union of those paths yields a subgraph ``H''``
    of ``H`` whose distances are no larger than the metric spanner's.
    """
    projected = graph.empty_spanning_subgraph()
    for u, v, _ in metric_spanner.edges():
        path = shortest_path(graph, u, v)
        if path is None:
            raise SpannerError(
                f"metric spanner edge ({u!r}, {v!r}) has no path in the base graph"
            )
        for a, b in zip(path, path[1:]):
            projected.add_edge(a, b, graph.weight(a, b))
    return projected


def verify_lemma7_weight(
    greedy: Spanner, metric_spanner: WeightedGraph, *, tolerance: float = 1e-9
) -> bool:
    """Check Lemma 7 on a concrete instance.

    ``metric_spanner`` must be a ``t``-spanner of the metric ``M_H`` induced by
    the greedy ``t``-spanner ``H``; the lemma asserts ``w(H) ≤ w(H')``.
    """
    return greedy.weight <= metric_spanner.total_weight() * (1.0 + tolerance)


def verify_lemma8_size(greedy: Spanner, metric_spanner: WeightedGraph) -> bool:
    """Check Lemma 8 on a concrete instance (requires stretch ``t < 2``).

    ``metric_spanner`` must be a ``t``-spanner of ``M_H``; the lemma asserts
    ``|H| ≤ |H'|``.
    """
    if greedy.stretch >= 2.0:
        raise SpannerError("Lemma 8 only applies for stretch t < 2")
    return greedy.number_of_edges <= metric_spanner.number_of_edges


def build_metric_spanner_of_greedy(greedy: Spanner, t: float) -> WeightedGraph:
    """Build a ``t``-spanner of the metric ``M_H`` induced by a greedy spanner ``H``.

    The competitor spanner is itself produced by the greedy algorithm run on
    the complete graph of ``M_H`` — any construction would do for exercising
    Lemmas 7/8; greedy keeps the tests deterministic.
    """
    metric = GraphMetric(greedy.subgraph)
    competitor = greedy_spanner_of_metric(metric, t)
    return competitor.subgraph


# ---------------------------------------------------------------------------
# Existential optimality certificates (Theorems 4 and 5)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OptimalityCertificate:
    """The quantities compared by the existential-optimality theorems.

    For a graph ``G`` with greedy spanner ``H`` and a competitor spanner
    ``H_comp`` computed *on top of* ``H`` (general graphs: on ``H`` itself;
    doubling metrics: on the induced metric ``M_H``), Theorems 4/5 hinge on
    the facts recorded here.
    """

    greedy_edges: int
    greedy_weight: float
    greedy_lightness: float
    competitor_edges: int
    competitor_weight: float
    competitor_lightness: float
    shared_mst_weight: float
    greedy_no_heavier: bool
    greedy_no_larger: bool

    def holds(self) -> bool:
        """True if the greedy spanner is no larger and no heavier than the competitor."""
        return self.greedy_no_heavier and self.greedy_no_larger


def existential_optimality_certificate(
    graph: WeightedGraph, t: float, *, tolerance: float = 1e-9
) -> OptimalityCertificate:
    """Produce the Theorem 4 comparison for a concrete graph.

    Theorem 4's proof runs a hypothetical optimal spanner on the greedy
    spanner ``H`` itself (valid because the family is closed under edge
    removal) and uses Lemma 3 to conclude it must equal ``H``.  Concretely we
    run the greedy construction on ``H`` as the competitor; the certificate
    records that its size and weight are not smaller than ``H``'s — i.e. no
    spanner of ``H`` beats ``H``, which is the existential-optimality engine.
    """
    greedy = greedy_spanner(graph, t)
    competitor = greedy_spanner(greedy.subgraph, t)
    shared_mst = mst_weight_indexed(graph)
    greedy_weight = greedy.weight
    competitor_weight = competitor.weight
    return OptimalityCertificate(
        greedy_edges=greedy.number_of_edges,
        greedy_weight=greedy_weight,
        greedy_lightness=greedy_weight / shared_mst if shared_mst else math.inf,
        competitor_edges=competitor.number_of_edges,
        competitor_weight=competitor_weight,
        competitor_lightness=competitor_weight / shared_mst if shared_mst else math.inf,
        shared_mst_weight=shared_mst,
        greedy_no_heavier=greedy_weight <= competitor_weight * (1.0 + tolerance),
        greedy_no_larger=greedy.number_of_edges <= competitor.number_of_edges,
    )


def metric_optimality_certificate(
    metric: FiniteMetric, t: float, *, tolerance: float = 1e-9
) -> OptimalityCertificate:
    """Produce the Theorem 5 comparison for a concrete metric space.

    The competitor spanner is computed on the metric ``M_H`` induced by the
    greedy spanner ``H``; Lemma 7 (weight) and Lemma 8 (size, ``t < 2``)
    guarantee the greedy spanner is no heavier / no larger.
    """
    greedy = greedy_spanner_of_metric(metric, t)
    competitor_graph = build_metric_spanner_of_greedy(greedy, t)
    base_mst = mst_weight_indexed(greedy.base)
    greedy_weight = greedy.weight
    competitor_weight = competitor_graph.total_weight()
    return OptimalityCertificate(
        greedy_edges=greedy.number_of_edges,
        greedy_weight=greedy_weight,
        greedy_lightness=greedy_weight / base_mst if base_mst else math.inf,
        competitor_edges=competitor_graph.number_of_edges,
        competitor_weight=competitor_weight,
        competitor_lightness=competitor_weight / base_mst if base_mst else math.inf,
        shared_mst_weight=base_mst,
        greedy_no_heavier=greedy_weight <= competitor_weight * (1.0 + tolerance),
        greedy_no_larger=(t >= 2.0)
        or (greedy.number_of_edges <= competitor_graph.number_of_edges),
    )


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure1Report:
    """Measured quantities of the Figure 1 construction.

    Attributes mirror the caption of Figure 1: the greedy 3-spanner of the
    Petersen-plus-star graph ``G`` keeps all 15 Petersen edges, while the
    optimal 3-spanner is the 9-edge star.
    """

    stretch: float
    epsilon: float
    greedy_edges: int
    greedy_weight: float
    petersen_edges_kept: int
    star_edges: int
    star_weight: float
    star_is_valid_spanner: bool
    greedy_weight_on_petersen_alone: float
    greedy_matches_petersen_on_petersen: bool

    @property
    def greedy_is_universally_optimal(self) -> bool:
        """False when the star beats the greedy spanner on ``G`` (the paper's point)."""
        return not (
            self.star_is_valid_spanner
            and (self.star_edges < self.greedy_edges or self.star_weight < self.greedy_weight)
        )


def analyse_figure1(epsilon: float = 0.1, stretch: float = 3.0) -> Figure1Report:
    """Reproduce the Figure 1 example.

    Builds the Petersen+star graph ``G``, runs the greedy ``stretch``-spanner,
    checks that it retains every Petersen edge, checks that the star alone is a
    valid ``stretch``-spanner of ``G`` (for ``stretch ≥ 2 + 2ε``), and runs the
    greedy spanner on the Petersen graph ``H`` alone to exhibit the existential
    side: the greedy spanner of ``G`` weighs exactly as much as the (unique)
    spanner of ``H``, which is the graph ``G'`` whose existence Theorem 4
    invokes.
    """
    combined, petersen, star = figure1_instance(epsilon)
    greedy = greedy_spanner(combined, stretch)

    petersen_kept = sum(
        1 for u, v, _ in petersen.edges() if greedy.subgraph.has_edge(u, v)
    )
    star_subgraph = combined.subgraph_with_edges(
        [(u, v) for u, v, _ in star.edges()]
    )
    from repro.spanners.verification import verify_spanner_edges

    star_valid = verify_spanner_edges(star_subgraph, combined, stretch)

    greedy_on_petersen = greedy_spanner(petersen, stretch)

    return Figure1Report(
        stretch=stretch,
        epsilon=epsilon,
        greedy_edges=greedy.number_of_edges,
        greedy_weight=greedy.weight,
        petersen_edges_kept=petersen_kept,
        star_edges=star_subgraph.number_of_edges,
        star_weight=star_subgraph.total_weight(),
        star_is_valid_spanner=star_valid,
        greedy_weight_on_petersen_alone=greedy_on_petersen.weight,
        greedy_matches_petersen_on_petersen=greedy_on_petersen.subgraph.same_edges(petersen),
    )


# ---------------------------------------------------------------------------
# Brute-force optimal spanners (small instances only)
# ---------------------------------------------------------------------------
def brute_force_optimal_spanner(
    graph: WeightedGraph,
    t: float,
    *,
    objective: str = "weight",
    max_edges: int = 20,
) -> WeightedGraph:
    """Return a minimum-weight (or minimum-size) ``t``-spanner by exhaustive search.

    Only feasible for graphs with at most ``max_edges`` edges (the search is
    exponential); used by the tests to confirm on small instances that the
    greedy spanner, while not always optimal for its own graph (Figure 1), is
    never beaten on the high-girth graphs where the lower bounds live.
    """
    edges = list(graph.edges())
    if len(edges) > max_edges:
        raise SpannerError(
            f"brute force limited to {max_edges} edges, graph has {len(edges)}"
        )
    if objective not in {"weight", "size"}:
        raise ValueError("objective must be 'weight' or 'size'")
    from repro.spanners.verification import verify_spanner_edges

    best_subgraph: WeightedGraph | None = None
    best_value = math.inf
    indices = range(len(edges))
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(indices, r):
            candidate = graph.subgraph_with_edges(
                [(edges[i][0], edges[i][1]) for i in subset]
            )
            if not verify_spanner_edges(candidate, graph, t):
                continue
            value = (
                candidate.total_weight() if objective == "weight" else float(candidate.number_of_edges)
            )
            if value < best_value:
                best_value = value
                best_subgraph = candidate
        if best_subgraph is not None and objective == "size":
            # Subsets are enumerated by increasing size, so the first hit is minimum-size.
            break
    if best_subgraph is None:
        raise SpannerError("no t-spanner found (graph may be disconnected)")
    return best_subgraph
