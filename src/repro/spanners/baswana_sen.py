"""The Baswana–Sen randomized (2k-1)-spanner for weighted graphs.

This is the standard *non-greedy* baseline for general graphs: a linear-time
randomized clustering construction producing a ``(2k-1)``-spanner with
``O(k · n^{1+1/k})`` edges in expectation.  (networkx's ``spanner`` routine
implements the same algorithm; ours is self-contained so the core library has
no networkx dependency, and instrumented the same way as the greedy
implementation.)

The paper's Question 1 asks whether other constructions can be *lighter* than
the greedy spanner; experiment E3/E6 measures Baswana–Sen against greedy on
size and lightness, reproducing the folklore the paper cites (greedy wins by
a wide margin on both).

Algorithm (Baswana & Sen 2007), phase by phase:

* ``k-1`` clustering phases.  Initially every vertex is a singleton cluster.
  In each phase every cluster survives independently with probability
  ``n^{-1/k}``; a vertex adjacent to a surviving cluster joins its nearest
  one through its lightest edge (added to the spanner), and a vertex with no
  adjacent surviving cluster adds its lightest edge to *every* adjacent
  cluster and becomes inactive.
* A final phase where every remaining active vertex adds its lightest edge to
  every adjacent cluster.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import InvalidStretchError
from repro.core.spanner import Spanner
from repro.graph.weighted_graph import Vertex, WeightedGraph


def baswana_sen_spanner(
    graph: WeightedGraph, k: int, *, seed: Optional[int] = None
) -> Spanner:
    """Build a ``(2k-1)``-spanner of ``graph`` with the Baswana–Sen algorithm.

    Parameters
    ----------
    graph:
        The weighted input graph.
    k:
        The stretch parameter; the result is a ``(2k-1)``-spanner with
        ``O(k · n^{1+1/k})`` edges in expectation.
    seed:
        Seed for the cluster-sampling randomness (reproducible runs).
    """
    if k < 1:
        raise InvalidStretchError(f"k must be at least 1, got {k}")
    n = graph.number_of_vertices
    spanner_graph = graph.empty_spanning_subgraph()
    if n == 0:
        return Spanner(base=graph, subgraph=spanner_graph, stretch=float(2 * k - 1),
                       algorithm="baswana-sen")
    if k == 1:
        # A 1-spanner must preserve all distances exactly: keep every edge.
        for u, v, weight in graph.edges():
            spanner_graph.add_edge(u, v, weight)
        return Spanner(base=graph, subgraph=spanner_graph, stretch=1.0,
                       algorithm="baswana-sen")

    rng = random.Random(seed)
    sampling_probability = n ** (-1.0 / k)

    # cluster_of[v] = centre of v's cluster (None once v becomes inactive).
    cluster_of: dict[Vertex, Optional[Vertex]] = {v: v for v in graph.vertices()}
    # Residual edges still under consideration, stored per vertex pair.
    residual = graph.copy()

    def lightest_edge_per_cluster(vertex: Vertex) -> dict[Vertex, tuple[Vertex, float]]:
        """Map each adjacent cluster centre to this vertex's lightest edge into it."""
        best: dict[Vertex, tuple[Vertex, float]] = {}
        for neighbour, weight in residual.incident(vertex):
            centre = cluster_of.get(neighbour)
            if centre is None:
                continue
            if centre not in best or weight < best[centre][1]:
                best[centre] = (neighbour, weight)
        return best

    active = set(graph.vertices())

    for _phase in range(k - 1):
        centres = {c for c in cluster_of.values() if c is not None}
        sampled = {c for c in centres if rng.random() < sampling_probability}

        new_cluster_of: dict[Vertex, Optional[Vertex]] = {}
        for vertex in list(active):
            centre = cluster_of[vertex]
            if centre in sampled:
                # Vertex already belongs to a sampled cluster: nothing to do.
                new_cluster_of[vertex] = centre
                continue
            per_cluster = lightest_edge_per_cluster(vertex)
            sampled_options = {
                c: e for c, e in per_cluster.items() if c in sampled
            }
            if sampled_options:
                # Join the nearest sampled cluster through the lightest edge.
                best_centre, (best_neighbour, best_weight) = min(
                    sampled_options.items(), key=lambda item: item[1][1]
                )
                spanner_graph.add_edge(vertex, best_neighbour, best_weight)
                new_cluster_of[vertex] = best_centre
                # Baswana–Sen rule: additionally connect (once) to every
                # adjacent cluster that is strictly nearer than the chosen
                # sampled cluster, then discard all residual edges into the
                # chosen cluster and into those nearer clusters.
                covered_centres = {best_centre}
                for centre_other, (neighbour, weight) in per_cluster.items():
                    if centre_other != best_centre and weight < best_weight:
                        spanner_graph.add_edge(vertex, neighbour, weight)
                        covered_centres.add(centre_other)
                for neighbour in list(residual.neighbours(vertex)):
                    if cluster_of.get(neighbour) in covered_centres:
                        residual.remove_edge(vertex, neighbour)
            else:
                # No adjacent sampled cluster: connect once to every adjacent
                # cluster and retire from the clustering.
                for _centre, (neighbour, weight) in per_cluster.items():
                    spanner_graph.add_edge(vertex, neighbour, weight)
                for neighbour in list(residual.neighbours(vertex)):
                    residual.remove_edge(vertex, neighbour)
                new_cluster_of[vertex] = None
                active.discard(vertex)

        for vertex in graph.vertices():
            if vertex in new_cluster_of:
                cluster_of[vertex] = new_cluster_of[vertex]
            elif vertex not in active:
                cluster_of[vertex] = None

    # Final phase: every still-active vertex connects to each adjacent cluster.
    for vertex in list(active):
        for _centre, (neighbour, weight) in lightest_edge_per_cluster(vertex).items():
            spanner_graph.add_edge(vertex, neighbour, weight)

    return Spanner(
        base=graph,
        subgraph=spanner_graph,
        stretch=float(2 * k - 1),
        algorithm="baswana-sen",
        metadata={
            "k": float(k),
            "sampling_probability": sampling_probability,
            "expected_size_bound": float(k) * n ** (1.0 + 1.0 / k),
        },
    )


def expected_size_bound(n: int, k: int) -> float:
    """The expected-size bound ``k · n^{1+1/k}`` of the Baswana–Sen spanner."""
    if k < 1:
        raise InvalidStretchError(f"k must be at least 1, got {k}")
    return float(k) * float(n) ** (1.0 + 1.0 / k)
