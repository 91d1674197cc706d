"""One function per paper claim: experiments E1–E9 of ``repro experiment``.

Each function regenerates the measurable content of one figure, corollary or
quoted empirical claim of *The Greedy Spanner is Existentially Optimal* and
returns an :class:`~repro.experiments.harness.ExperimentResult`.  The
benchmarks in ``benchmarks/`` call these functions (so the experiment
tables are regenerated by ``pytest benchmarks/ --benchmark-only``),
and the integration tests assert the *shape* of the results (who wins, what
grows, what stays flat) without pinning fragile absolute numbers.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.lightness import (
    althofer_size_bound,
    chechik_wulffnilsen_lightness_bound,
    gottlieb_lightness_bound,
    smid_doubling_lightness_bound,
)
from repro.core.optimality import (
    analyse_figure1,
    existential_optimality_certificate,
    greedy_is_fixed_point,
    verify_lemma3_self_spanner,
    verify_observation2,
)
from repro.distributed.comparison import compare_overlays, overlays_from_builders
from repro.experiments.harness import ExperimentResult, timed
from repro.graph.generators import random_connected_graph, random_geometric_graph
from repro.metric.generators import uniform_points
from repro.spanners.registry import build_spanner


# ---------------------------------------------------------------------------
# E1 — Figure 1
# ---------------------------------------------------------------------------
def experiment_figure1(
    epsilons: Sequence[float] = (0.05, 0.1, 0.25, 0.45), stretch: float = 3.0
) -> ExperimentResult:
    """Reproduce Figure 1: greedy is not universally optimal, yet existentially optimal."""
    result = ExperimentResult(
        experiment_id="E1",
        title="Figure 1: Petersen graph + (1+eps) star",
        paper_claim=(
            "The greedy 3-spanner of G keeps all 15 girth-5 edges of the Petersen "
            "graph H, while the optimal 3-spanner is the 9-edge star; the greedy "
            "spanner's weight equals that of the only spanner of H itself."
        ),
    )
    with timed(result):
        for epsilon in epsilons:
            report = analyse_figure1(epsilon=epsilon, stretch=stretch)
            result.add_row(
                epsilon=epsilon,
                greedy_edges=report.greedy_edges,
                greedy_weight=report.greedy_weight,
                petersen_edges_kept=report.petersen_edges_kept,
                star_edges=report.star_edges,
                star_weight=report.star_weight,
                star_is_valid_spanner=report.star_is_valid_spanner,
                universally_optimal=report.greedy_is_universally_optimal,
                greedy_weight_on_H=report.greedy_weight_on_petersen_alone,
            )
        result.add_note(
            "universally_optimal=no in every row is the paper's point: a valid "
            "3-spanner (the star) is both sparser and lighter, but it exists only "
            "for the combined graph G, not for the high-girth graph H that the "
            "greedy spanner is implicitly optimal against."
        )
    return result


# ---------------------------------------------------------------------------
# E2 — Lemma 3
# ---------------------------------------------------------------------------
def experiment_lemma3(
    sizes: Sequence[int] = (20, 40, 60),
    stretches: Sequence[float] = (1.5, 2.0, 3.0),
    *,
    seed: int = 5,
) -> ExperimentResult:
    """Verify Lemma 3 (the greedy spanner is its own unique t-spanner) on random graphs."""
    result = ExperimentResult(
        experiment_id="E2",
        title="Lemma 3: the only t-spanner of the greedy spanner is itself",
        paper_claim=(
            "For every edge e of the greedy t-spanner H, H - e is not a t-spanner "
            "of H; equivalently re-running the greedy algorithm on H returns H."
        ),
    )
    with timed(result):
        for n in sizes:
            for t in stretches:
                graph = random_connected_graph(n, 0.15, seed=seed + n)
                spanner = build_spanner("greedy", graph, t)
                result.add_row(
                    n=n,
                    t=t,
                    greedy_edges=spanner.number_of_edges,
                    fixed_point=greedy_is_fixed_point(spanner),
                    no_redundant_edge=verify_lemma3_self_spanner(spanner),
                    contains_mst=verify_observation2(spanner),
                )
    return result


# ---------------------------------------------------------------------------
# E3 — Corollary 4 (general graphs)
# ---------------------------------------------------------------------------
def experiment_general_graphs(
    sizes: Sequence[int] = (50, 100, 200),
    ks: Sequence[int] = (2, 3),
    *,
    epsilon: float = 0.5,
    extra_edge_probability: float = 0.3,
    seed: int = 17,
) -> ExperimentResult:
    """Greedy (2k-1)-spanners on general graphs: size and lightness vs the quoted bounds."""
    result = ExperimentResult(
        experiment_id="E3",
        title="Corollary 4: greedy spanners of general weighted graphs",
        paper_claim=(
            "The greedy (2k-1)(1+eps)-spanner has O(n^{1+1/k}) edges and lightness "
            "O(n^{1/k} eps^{-(3+2/k)}); it is never larger or heavier than other "
            "constructions (here Baswana-Sen) at the same stretch."
        ),
    )
    with timed(result):
        for n in sizes:
            graph = random_connected_graph(
                n, extra_edge_probability, seed=seed + n
            )
            for k in ks:
                stretch = (2 * k - 1) * (1.0 + epsilon)
                greedy = build_spanner("greedy", graph, stretch)
                baseline = build_spanner("baswana-sen", graph, stretch, k=k, seed=seed)
                greedy_stats = greedy.statistics()
                baseline_stats = baseline.statistics()
                certificate = existential_optimality_certificate(graph, stretch)
                result.add_row(
                    n=n,
                    m=graph.number_of_edges,
                    k=k,
                    stretch=stretch,
                    greedy_edges=greedy_stats.edges,
                    size_bound=althofer_size_bound(n, k),
                    greedy_lightness=greedy_stats.lightness,
                    lightness_bound=chechik_wulffnilsen_lightness_bound(n, k, epsilon),
                    baswana_sen_edges=baseline_stats.edges,
                    baswana_sen_lightness=baseline_stats.lightness,
                    greedy_wins_size=greedy_stats.edges <= baseline_stats.edges,
                    greedy_wins_lightness=greedy_stats.lightness
                    <= baseline_stats.lightness + 1e-9,
                    existential_certificate=certificate.holds(),
                )
        result.add_note(
            "Shape check: greedy edge counts stay below the n^{1+1/k} curve and "
            "below Baswana-Sen's; greedy lightness stays below Baswana-Sen's."
        )
    return result


# ---------------------------------------------------------------------------
# E4 — Corollary 10 (doubling metrics)
# ---------------------------------------------------------------------------
def experiment_doubling_metrics(
    sizes: Sequence[int] = (40, 80, 160),
    epsilons: Sequence[float] = (0.25, 0.5),
    *,
    dimension: int = 2,
    seed: int = 29,
) -> ExperimentResult:
    """Greedy (1+eps)-spanners of Euclidean/doubling metrics: O(n) edges, flat lightness."""
    result = ExperimentResult(
        experiment_id="E4",
        title="Corollary 10: greedy (1+eps)-spanners of doubling metrics",
        paper_claim=(
            "The greedy (1+eps)-spanner of an n-point doubling metric has "
            "n*(1/eps)^{O(ddim)} edges and lightness (ddim/eps)^{O(ddim)} — "
            "independent of n (improving the previous O(log n) bound)."
        ),
    )
    with timed(result):
        for epsilon in epsilons:
            for n in sizes:
                metric = uniform_points(n, dimension, seed=seed + n)
                spanner = build_spanner("greedy", metric, 1.0 + epsilon)
                stats = spanner.statistics()
                result.add_row(
                    n=n,
                    epsilon=epsilon,
                    edges=stats.edges,
                    edges_per_point=stats.edges / n,
                    max_degree=stats.max_degree,
                    lightness=stats.lightness,
                    old_bound_log_n=smid_doubling_lightness_bound(n, epsilon, dimension),
                    new_bound_constant=gottlieb_lightness_bound(
                        min(epsilon, 0.49), dimension
                    ),
                )
        result.add_note(
            "Shape check: edges_per_point and lightness stay essentially flat as n "
            "grows (the Corollary 10 shape), rather than tracking log n."
        )
    return result


# ---------------------------------------------------------------------------
# E5 — Theorem 6 (approximate-greedy)
# ---------------------------------------------------------------------------
def experiment_approximate_greedy(
    sizes: Sequence[int] = (40, 80, 160),
    *,
    epsilon: float = 0.5,
    dimension: int = 2,
    seed: int = 31,
) -> ExperimentResult:
    """Approximate-greedy vs exact greedy: quality within constants, far fewer distance queries."""
    result = ExperimentResult(
        experiment_id="E5",
        title="Theorem 6: Algorithm Approximate-Greedy in doubling metrics",
        paper_claim=(
            "Approximate-Greedy returns a (1+eps)-spanner with constant lightness "
            "and degree; its lightness is within a constant factor of the exact "
            "greedy spanner's while the number of distance queries drops from "
            "Theta(n^2) to one per edge of the O(n)-edge base spanner. (This "
            "implementation runs exact greedy on the base spanner, not the "
            "cluster graphs behind the paper's eps^{-O(ddim)} n log n RAM bound.)"
        ),
    )
    with timed(result):
        for n in sizes:
            metric = uniform_points(n, dimension, seed=seed + n)

            start = time.perf_counter()
            exact = build_spanner("greedy", metric, 1.0 + epsilon)
            exact_seconds = time.perf_counter() - start

            start = time.perf_counter()
            # The 2-dimensional Euclidean workload uses the Θ-graph base spanner
            # (the substrate of the original Euclidean algorithm of DN97/GLN02),
            # whose constants are far smaller than the net-tree's.
            approx = build_spanner(
                "approx-greedy", metric, 1.0 + epsilon, epsilon=epsilon, base="theta"
            )
            approx_seconds = time.perf_counter() - start

            exact_stats = exact.statistics()
            approx_stats = approx.statistics()
            result.add_row(
                n=n,
                exact_edges=exact_stats.edges,
                approx_edges=approx_stats.edges,
                exact_lightness=exact_stats.lightness,
                approx_lightness=approx_stats.lightness,
                lightness_ratio=(
                    approx_stats.lightness / exact_stats.lightness
                    if exact_stats.lightness
                    else float("inf")
                ),
                exact_degree=exact_stats.max_degree,
                approx_degree=approx_stats.max_degree,
                exact_distance_queries=exact.metadata.get("distance_queries", 0.0),
                approx_distance_queries=approx.metadata["distance_queries"],
                exact_seconds=exact_seconds,
                approx_seconds=approx_seconds,
                approx_valid=approx.is_valid(),
            )
        result.add_note(
            "Shape check: exact_distance_queries grows quadratically (it equals "
            "n(n-1)/2) while approx_distance_queries equals the base spanner's "
            "edge count, linear in n; the lightness ratio stays bounded by a "
            "small constant. Measured wall clock (2-CPU host, this experiment's "
            "points, eps = 0.5): the two builds tie through n = 160 (0.044 s "
            "against 0.046 s) and approx-greedy wins from n = 320 (0.13 s "
            "against 0.22 s; 0.37 s against 0.78 s at n = 640)."
        )
    return result


# ---------------------------------------------------------------------------
# E6 — the quoted experimental comparison (FG05)
# ---------------------------------------------------------------------------
def experiment_comparison(
    n: int = 120,
    *,
    stretch: float = 1.5,
    dimension: int = 2,
    seed: int = 37,
    clustered: bool = False,
) -> ExperimentResult:
    """Greedy vs Theta-graph vs WSPD vs net-tree on the same Euclidean workload."""
    from repro.metric.generators import clustered_points

    result = ExperimentResult(
        experiment_id="E6",
        title="Quoted empirical claim: greedy vs other Euclidean constructions",
        paper_claim=(
            "Experimental studies [FG05, Far08] found the greedy spanner to be about "
            "10x sparser and 30x lighter than the other popular constructions; this "
            "experiment regenerates the comparison (exact ratios depend on the "
            "workload and stretch, the ordering should not)."
        ),
    )
    with timed(result):
        if clustered:
            metric = clustered_points(n, dimension, clusters=6, seed=seed)
        else:
            metric = uniform_points(n, dimension, seed=seed)
        epsilon = stretch - 1.0

        constructions = {}
        constructions["greedy"] = build_spanner("greedy", metric, stretch)
        constructions["approx-greedy"] = build_spanner(
            "approx-greedy", metric, stretch, epsilon=epsilon, base="net-tree"
        )
        constructions["net-tree"] = build_spanner(
            "bounded-degree", metric, stretch, epsilon=epsilon
        )
        constructions["wspd"] = build_spanner("wspd", metric, stretch)
        if dimension == 2:
            constructions["theta-graph"] = build_spanner("theta", metric, stretch)
        constructions["mst"] = build_spanner("mst", metric, stretch)

        greedy_stats = constructions["greedy"].statistics()
        for name, spanner in constructions.items():
            stats = spanner.statistics()
            result.add_row(
                algorithm=name,
                stretch_bound=spanner.stretch,
                edges=stats.edges,
                weight=stats.weight,
                lightness=stats.lightness,
                max_degree=stats.max_degree,
                edges_vs_greedy=stats.edges / greedy_stats.edges if greedy_stats.edges else 0.0,
                weight_vs_greedy=stats.weight / greedy_stats.weight if greedy_stats.weight else 0.0,
            )
        result.add_note(
            "Shape check: every non-greedy construction (except the MST, which is "
            "not a valid (1+eps)-spanner) has edges_vs_greedy and weight_vs_greedy "
            "well above 1."
        )
    return result


# ---------------------------------------------------------------------------
# E7 — broadcast over spanner overlays
# ---------------------------------------------------------------------------
def experiment_broadcast(
    n: int = 100,
    *,
    radius: float = 0.2,
    stretch: float = 1.5,
    seed: int = 41,
) -> ExperimentResult:
    """Broadcast cost/delay over the full graph, the MST and the greedy spanner overlay."""
    result = ExperimentResult(
        experiment_id="E7",
        title="Section 1.1 motivation: broadcast over spanner overlays",
        paper_claim=(
            "Light, sparse spanners give broadcast protocols whose total "
            "communication cost tracks the spanner's weight while message delivery "
            "stays within the stretch factor of the fastest possible."
        ),
    )
    with timed(result):
        graph = random_geometric_graph(n, radius, seed=seed)
        overlays = overlays_from_builders(
            graph,
            {
                "mst": {"builder": "mst"},
                "greedy-spanner": {"builder": "greedy"},
                "baswana-sen": {"builder": "baswana-sen", "k": 2, "seed": seed},
            },
            stretch,
        )
        comparison = compare_overlays(graph, overlays, protocols=("broadcast",))
        for outcome in comparison.broadcast:
            row = {"overlay": outcome.overlay_name}
            row.update(outcome.as_row())
            result.add_row(**row)
        result.add_note(
            "Shape check: the greedy-spanner overlay's communication cost is close "
            "to the MST's and far below the full graph's, while its delay stretch "
            "stays near the target stretch."
        )
    return result


# ---------------------------------------------------------------------------
# E8 — greedy degree vs bounded-degree construction
# ---------------------------------------------------------------------------
def experiment_degree(
    star_sizes: Sequence[int] = (10, 20, 40, 80),
    euclidean_sizes: Sequence[int] = (40, 80, 160),
    *,
    epsilon: float = 0.5,
    seed: int = 43,
) -> ExperimentResult:
    """Greedy degree blow-up on star metrics vs flat degrees on Euclidean workloads."""
    from repro.metric.generators import star_metric

    result = ExperimentResult(
        experiment_id="E8",
        title="Degree: greedy blow-up on star metrics vs Euclidean workloads",
        paper_claim=(
            "There exist metric spaces where the greedy (1+eps)-spanner has degree "
            "n-1 [HM06, Smi09] — the reason Approximate-Greedy starts from a "
            "bounded-degree spanner (Theorem 2); on Euclidean workloads all three "
            "constructions keep small degree."
        ),
    )
    with timed(result):
        for n in star_sizes:
            metric = star_metric(n)
            greedy = build_spanner("greedy", metric, 1.0 + epsilon)
            result.add_row(
                workload="star",
                n=n,
                greedy_max_degree=greedy.max_degree,
                degree_equals_n_minus_1=greedy.max_degree == n - 1,
                greedy_edges=greedy.number_of_edges,
            )
        for n in euclidean_sizes:
            metric = uniform_points(n, 2, seed=seed + n)
            greedy = build_spanner("greedy", metric, 1.0 + epsilon)
            approx = build_spanner(
                "approx-greedy", metric, 1.0 + epsilon, epsilon=epsilon, base="theta"
            )
            result.add_row(
                workload="uniform-2d",
                n=n,
                greedy_max_degree=greedy.max_degree,
                approx_greedy_max_degree=approx.max_degree,
                approx_base_max_degree=approx.metadata.get("base_max_degree"),
                greedy_edges=greedy.number_of_edges,
                approx_edges=approx.number_of_edges,
            )
        result.add_note(
            "Shape check: on the star metric the greedy degree equals n-1 and grows "
            "linearly; on the Euclidean workloads the greedy, approximate-greedy and "
            "base-spanner degrees all stay small and essentially flat in n."
        )
    return result


# ---------------------------------------------------------------------------
# E9 — compact routing over spanner overlays (Section 1.1 motivation)
# ---------------------------------------------------------------------------
def experiment_routing(
    n: int = 100,
    *,
    radius: float = 0.2,
    stretch: float = 1.5,
    demand_count: int = 150,
    seed: int = 47,
) -> ExperimentResult:
    """Routing state (ports) vs route stretch over full graph / greedy / Baswana–Sen / MST."""
    result = ExperimentResult(
        experiment_id="E9",
        title="Section 1.1 motivation: compact routing over spanner overlays",
        paper_claim=(
            "Low-degree spanners keep per-node routing state (ports) small while "
            "routed paths stay within the spanner's stretch of optimal; the MST "
            "minimises state but not route quality, the full graph the reverse."
        ),
    )
    with timed(result):
        graph = random_geometric_graph(n, radius, seed=seed)
        overlays = overlays_from_builders(
            graph,
            {
                "greedy-spanner": {"builder": "greedy"},
                "baswana-sen": {"builder": "baswana-sen", "k": 2, "seed": seed},
                "mst": {"builder": "mst"},
            },
            stretch,
        )
        comparison = compare_overlays(
            graph, overlays, protocols=("routing",), demand_count=demand_count, seed=seed
        )
        for report in comparison.routing:
            row = {"overlay": report.overlay_name}
            row.update(report.as_row())
            result.add_row(**row)
        result.add_note(
            "Shape check: the greedy overlay's max_ports is well below the full "
            "graph's while its max_route_stretch stays within the target stretch; "
            "the MST has the fewest ports but the worst routes."
        )
    return result
