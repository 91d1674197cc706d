"""Algorithm ``Approximate-Greedy`` for doubling metrics (Section 5 of the paper).

The exact greedy spanner has two drawbacks in metric spaces (Section 5): it
examines all ``n(n-1)/2`` interpoint distances and answers each distance
query exactly on the growing spanner, giving ``Ω(n²)`` behaviour and, in
doubling metrics, possibly unbounded degree.  Algorithm
``Approximate-Greedy`` ([DN97, GLN02], sketched in Section 5.1) fixes both:

1. Build a bounded-degree ``√(t/t')``-spanner ``G' = (M, E', δ)`` of the
   input metric.  Two substrates are available: the net-tree spanner of
   :mod:`repro.spanners.bounded_degree` (works for every doubling metric —
   the Theorem 2 substrate of the paper's Section 5) and the Θ-graph (planar
   Euclidean metrics only — the substrate the original Euclidean algorithm of
   [DN97, GLN02] builds on).  The Θ-graph's constants are far smaller, so the
   Euclidean scaling experiments use it.
2. Let ``D`` be the maximum edge weight of ``G'`` and ``E₀ ⊆ E'`` the *light*
   edges of weight at most ``D/n``.  All light edges go straight into the
   output (their total weight is ``O(D) = O(w(MST))``).
3. Partition ``E' \\ E₀`` into weight buckets with geometric ratio ``μ`` and
   simulate the greedy algorithm with stretch ``√(t·t')`` over the buckets in
   non-decreasing weight order, answering distance queries *approximately* on
   a cluster graph (:class:`~repro.core.cluster_graph.ClusterGraph`) whose
   radius is proportional to the bucket's weight scale: at each bucket
   transition the clusters are coarsened *incrementally* (the DN97/GLN02
   hierarchy — previous centres merge into new ones at cost proportional to
   the cluster nodes touched).

The output is a subgraph of ``G'`` (so its degree is bounded by ``G'``'s) and,
because the cluster-graph queries never *underestimate* spanner distances,
every skipped edge genuinely has a within-stretch path, so the output is a
``√(t·t')``-spanner of ``G'`` and therefore a ``t``-spanner of the metric.
The lightness is what Section 5.2 (Lemma 13 / Theorem 6) bounds; the
experiments measure it against the exact greedy spanner's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidStretchError
from repro.core.cluster_graph import ClusterGraph
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
    bucket_ratio:
        The geometric ratio ``μ`` between bucket boundaries.
    cluster_radius_factor:
        Cluster radius as a fraction of the current bucket's lower weight.
    light_edge_threshold_divisor:
        Light edges are those of weight at most ``D / divisor`` (the paper
        uses ``n``).
    """

    t: float
    base_stretch: float
    simulation_stretch: float
    bucket_ratio: float
    cluster_radius_factor: float
    light_edge_threshold_divisor: float


def derive_parameters(
    epsilon: float,
    n: int,
    *,
    bucket_ratio: Optional[float] = None,
    cluster_radius_factor: Optional[float] = None,
) -> ApproximateGreedyParameters:
    """Derive the Approximate-Greedy parameters for target stretch ``1 + ε``.

    The split follows the paper's remark after Lemma 11: the output spanner is
    a ``√(t·t')``-spanner of ``G'``, which is a ``√(t/t')``-spanner of the
    metric, with ``t' = 1 + O(ε) < t``.  We take ``t' = 1 + ε/2`` so both
    factors are ``≈ 1 + ε/4`` and their product is at most ``1 + ε``.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidStretchError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 1:
        raise ValueError("n must be positive")
    t = 1.0 + epsilon
    t_prime = 1.0 + epsilon / 2.0
    base_stretch = math.sqrt(t / t_prime)
    simulation_stretch = math.sqrt(t * t_prime)
    ratio = bucket_ratio if bucket_ratio is not None else max(2.0, math.log2(max(n, 4)))
    radius_factor = (
        cluster_radius_factor if cluster_radius_factor is not None else epsilon / 16.0
    )
    return ApproximateGreedyParameters(
        t=t,
        base_stretch=base_stretch,
        simulation_stretch=simulation_stretch,
        bucket_ratio=ratio,
        cluster_radius_factor=radius_factor,
        light_edge_threshold_divisor=float(n),
    )


def approximate_greedy_spanner(
    metric: FiniteMetric,
    epsilon: float,
    *,
    base: str = "net-tree",
    bucket_ratio: Optional[float] = None,
    cluster_radius_factor: Optional[float] = None,
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
    bucket_ratio, cluster_radius_factor:
        Optional overrides of the derived simulation parameters.

    Returns a :class:`Spanner` whose base graph is the metric's complete graph
    (so lightness and stretch are measured against the metric itself, as in
    Theorem 6).  Metadata records the base-spanner size, the number of light
    edges, the number of buckets, cluster-graph rebuilds/merges, the settle
    counts of the cluster maintenance and of the approximate distance
    queries — the quantities behind the runtime discussion of Section 5.1.
    """
    n = metric.size
    params = derive_parameters(
        epsilon,
        n,
        bucket_ratio=bucket_ratio,
        cluster_radius_factor=cluster_radius_factor,
    )

    # Step 1: bounded-degree base spanner G' with stretch base_stretch = 1 + ε'.
    base_epsilon = max(params.base_stretch - 1.0, 1e-9)
    base_spanner = _build_base_spanner(metric, base, base_epsilon)
    base_graph = base_spanner.subgraph

    complete = base_spanner.base  # the metric's complete graph, reused as the spanner's base
    output = complete.empty_spanning_subgraph()

    edges = base_graph.edges_sorted_by_weight()
    if not edges:
        return Spanner(
            base=complete,
            subgraph=output,
            stretch=params.t,
            algorithm="approximate-greedy",
            metadata={"base_edges": 0.0},
        )

    # Step 2: all light edges go straight into the output.
    heaviest = edges[-1][2]
    light_threshold = heaviest / params.light_edge_threshold_divisor
    light_edges = [e for e in edges if e[2] <= light_threshold]
    heavy_edges = [e for e in edges if e[2] > light_threshold]
    for u, v, weight in light_edges:
        output.add_edge(u, v, weight)

    # Step 3: bucketed greedy simulation on the heavy edges.  The loop runs
    # on integer ids end-to-end: the growing spanner lives in the cluster
    # graph's persistent IndexedGraph, queries and edge notifications go
    # through the id-based fast paths, and the vertex objects are only
    # touched to record accepted edges in the output graph.
    simulation_stretch = params.simulation_stretch
    buckets = _partition_into_buckets(heavy_edges, light_threshold, params.bucket_ratio)

    cluster_graph: Optional[ClusterGraph] = None
    added = 0
    transitions = 0
    initial_settles = 0
    id_of = None

    for bucket_low, bucket_edges in buckets:
        radius = params.cluster_radius_factor * bucket_low
        if cluster_graph is None:
            cluster_graph = ClusterGraph(output, radius)
            id_of = cluster_graph.index.id_of
            initial_settles = cluster_graph.clustering_settles
        else:
            cluster_graph.transition(radius)
            transitions += 1
        approximate_distance = cluster_graph.approximate_distance_ids
        notify = cluster_graph.notify_edge_added_ids
        add_to_output = output.add_edge
        for u, v, weight in bucket_edges:
            uid, vid = id_of(u), id_of(v)
            cutoff = simulation_stretch * weight
            if approximate_distance(uid, vid, cutoff) > cutoff:
                add_to_output(u, v, weight)
                notify(uid, vid, weight)
                added += 1

    metadata = {
        "base_edges": float(base_graph.number_of_edges),
        "base_max_degree": float(base_graph.max_degree()),
        "light_edges": float(len(light_edges)),
        "heavy_edges": float(len(heavy_edges)),
        "buckets": float(len(buckets)),
        "base_stretch": params.base_stretch,
        "simulation_stretch": params.simulation_stretch,
        "edges_added_by_simulation": float(added),
        "cluster_transitions": float(transitions),
    }
    if cluster_graph is not None:
        metadata.update(
            {
                "cluster_rebuilds": float(cluster_graph.rebuild_count),
                "cluster_merges": float(cluster_graph.merge_count),
                "cluster_skipped_transitions": float(
                    cluster_graph.skipped_transitions + cluster_graph.skipped_rebuilds
                ),
                "cluster_initial_settles": float(initial_settles),
                "cluster_transition_settles": float(
                    cluster_graph.clustering_settles - initial_settles
                ),
                "cluster_query_settles": float(cluster_graph.query_settles),
                "approximate_queries": float(cluster_graph.query_count),
            }
        )
    else:
        metadata.update(
            {
                "cluster_rebuilds": 0.0,
                "cluster_merges": 0.0,
                "cluster_skipped_transitions": 0.0,
                "cluster_initial_settles": 0.0,
                "cluster_transition_settles": 0.0,
                "cluster_query_settles": 0.0,
                "approximate_queries": 0.0,
            }
        )

    return Spanner(
        base=complete,
        subgraph=output,
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


def _partition_into_buckets(
    edges: list[tuple],
    lower_bound: float,
    ratio: float,
) -> list[tuple[float, list[tuple]]]:
    """Partition weight-sorted ``edges`` into geometric buckets above ``lower_bound``.

    Bucket ``i`` holds edges of weight in ``(lower_bound·ratio^i, lower_bound·ratio^{i+1}]``;
    returns a list of ``(bucket_lower_weight, bucket_edges)`` pairs in
    increasing weight order, skipping empty buckets.
    """
    if not edges:
        return []
    if lower_bound <= 0.0:
        lower_bound = edges[0][2] / ratio
    log_ratio = math.log(ratio)
    buckets: dict[int, list[tuple]] = {}
    for edge in edges:
        weight = edge[2]
        # The bucket index is the smallest i >= 0 with
        # weight <= lower_bound * ratio^(i+1); computing it via log replaces
        # the former per-step `ratio ** (index + 1)` scan (quadratic in the
        # bucket index).  Floating-point log can be off by one at the exact
        # boundaries, so nudge with the original comparison to keep bucket
        # assignment bit-identical to the scan.
        index = max(0, math.ceil(math.log(weight / lower_bound) / log_ratio) - 1)
        while weight > lower_bound * (ratio ** (index + 1)):
            index += 1
        while index > 0 and weight <= lower_bound * (ratio ** index):
            index -= 1
        buckets.setdefault(index, []).append(edge)
    result = []
    for index in sorted(buckets):
        bucket_low = lower_bound * (ratio ** index)
        result.append((bucket_low, buckets[index]))
    return result
