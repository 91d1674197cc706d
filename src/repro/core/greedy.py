"""Algorithm 1 of the paper: the greedy spanner.

::

    Greedy(G = (V, E, w), t):
        H = (V, ∅, w)
        for each edge (u, v) ∈ E, in non-decreasing order of weight:
            if δ_H(u, v) > t · w(u, v):
                add (u, v) to E(H)
        return H

Two entry points are provided:

* :func:`greedy_spanner` — runs the algorithm on an arbitrary weighted graph
  (the Section 3 setting),
* :func:`greedy_spanner_of_metric` — runs it on a finite metric space, i.e.
  on the complete graph over the points (the Section 4/5 setting).

The implementation is instrumented: the returned
:class:`~repro.core.spanner.Spanner` carries the number of distance queries
and Dijkstra settles in its metadata, which the experiments use to reproduce
the paper's runtime-scaling statements without depending on Python's constant
factors.

The edge-examination order breaks weight ties deterministically (see
:meth:`WeightedGraph.edges_sorted_by_weight`), so for a fixed input the
"greedy spanner" is a single well-defined graph, as assumed throughout the
paper (Section 2.2).

The loop runs on the oracle's dense vertex ids (see :func:`_id_edges`);
``H`` still gets each edge through ``add_edge`` when it is added.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.errors import InvalidStretchError, VertexNotFoundError
from repro.core.distance_oracle import make_oracle
from repro.core.spanner import Spanner
from repro.graph.weighted_graph import WeightedEdge, WeightedGraph, canonical_order, repr_ranks
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.metric.stream import sorted_pair_stream

ProgressCallback = Callable[[int, int], None]

#: Sorted edges turned from id arrays into Python scalars at a time.
CHUNK = 4096


def check_stretch(t: float) -> None:
    """Raise :class:`InvalidStretchError` unless ``t ≥ 1``.

    Written as ``not t >= 1`` so NaN fails too: every comparison with NaN
    is false, and a NaN cutoff would reject every edge (an empty
    "spanner").  ``inf`` passes — :mod:`repro.core.optimality` re-runs
    greedy at a spanner's own, possibly infinite, stretch.
    """
    if not t >= 1.0:
        raise InvalidStretchError(f"stretch must be at least 1, got {t}")


def _id_edges(graph, edges, id_of: dict) -> Iterator[tuple[int, int, float]]:
    """Yield the examination order as ``(u_id, v_id, weight)`` triples.

    A graph base is sorted from its :meth:`~WeightedGraph.edge_arrays`, whose
    ids are the spanner's (same vertex order).  Label triples (``edges=``, a
    :class:`MetricClosure` stream) go through ``id_of``.
    """
    if edges is None and not isinstance(graph, MetricClosure):
        vertices, u_ids, v_ids, weights = graph.edge_arrays()
        order = canonical_order(u_ids, v_ids, weights, repr_ranks(vertices))
        for start in range(0, order.size, CHUNK):
            block = order[start : start + CHUNK]
            yield from zip(u_ids[block].tolist(), v_ids[block].tolist(), weights[block].tolist())
        return
    if edges is None:
        edges = graph.edges_sorted_by_weight()
    for u, v, weight in edges:
        try:
            yield id_of[u], id_of[v], weight
        except KeyError:
            raise VertexNotFoundError(v if u in id_of else u) from None


def greedy_spanner(
    graph: WeightedGraph,
    t: float,
    *,
    oracle: str = "cached",
    progress: Optional[ProgressCallback] = None,
    edges: Optional[Iterable[WeightedEdge]] = None,
    seed_edges: Optional[Iterable[WeightedEdge]] = None,
) -> Spanner:
    """Run the greedy algorithm on ``graph`` with stretch parameter ``t``.

    Parameters
    ----------
    graph:
        The weighted graph ``G``.  It need not be connected; the greedy
        spanner of a disconnected graph spans each component.  Lazy views
        such as :class:`~repro.metric.closure.MetricClosure` work too: the
        loop only needs the vertex set and a sorted edge source, so the
        complete graph of a metric is never materialized.
    t:
        The stretch parameter, ``t ≥ 1``.
    oracle:
        Distance-query strategy: ``"cached"`` (single-source ball
        Dijkstra with monotone coverage caching, default) or
        ``"bounded"`` (the textbook cutoff-pruned Dijkstra, the baseline).
        Both produce the identical greedy spanner; they differ only in
        speed (see ``docs/PERFORMANCE.md``).
    progress:
        Optional callback invoked as ``progress(examined, total)`` after each
        edge examination; used by long-running experiments.
    edges:
        Optional edge source overriding ``graph.edges_sorted_by_weight()``.
        Any iterable of ``(u, v, weight)`` triples already in the canonical
        non-decreasing ``(weight, repr(u), repr(v))`` order is accepted — a
        materialized list or a generator such as
        :func:`~repro.metric.stream.sorted_pair_stream`; the loop consumes
        it lazily and never holds it whole.
    seed_edges:
        Optional edges installed in ``H`` *before* the loop starts (not
        examined, not counted as added).  This is the warm-start used by
        self-healing repair (:mod:`repro.core.repair`): seeding the kept
        prefix of a previous greedy run and replaying only the suffix of
        the canonical order reproduces the full run's suffix decisions
        exactly, because the greedy verdict at each position depends only
        on the ``H`` accumulated so far.  When given, the metadata gains
        an ``edges_seeded`` counter.

    Returns
    -------
    Spanner
        The greedy ``t``-spanner with construction metadata:
        ``distance_queries``, ``dijkstra_settles``, ``edges_examined``,
        ``edges_added``, plus any strategy-specific counters (e.g. the
        caching oracle's ``cache_hits`` / ``cache_misses``).
    """
    check_stretch(t)

    spanner_graph = graph.empty_spanning_subgraph()
    seeded = 0
    if seed_edges is not None:
        # Installed before the oracle is built, so every strategy sees the
        # warm-start edges as pre-existing spanner state (the cached oracle
        # certifies them as bounds at construction time).
        for u, v, weight in seed_edges:
            spanner_graph.add_edge(u, v, weight)
            seeded += 1
    distance_oracle = make_oracle(oracle, spanner_graph)

    try:
        total = len(edges)  # type: ignore[arg-type]
    except TypeError:
        total = graph.number_of_edges
    added = 0
    examined = 0
    labels = distance_oracle.labels
    within = distance_oracle.distance_within_ids

    for uid, vid, weight in _id_edges(graph, edges, distance_oracle.id_of):
        examined += 1
        cutoff = t * weight
        if within(uid, vid, cutoff) > cutoff:
            spanner_graph.add_edge(labels[uid], labels[vid], weight)
            distance_oracle.notify_edge_added_ids(uid, vid, weight)
            added += 1
        if progress is not None:
            progress(examined, total)

    metadata = {
        "distance_queries": float(distance_oracle.query_count),
        "dijkstra_settles": float(distance_oracle.settled_count),
        "edges_examined": float(examined),
        "edges_added": float(added),
    }
    if seed_edges is not None:
        metadata["edges_seeded"] = float(seeded)
    metadata.update(distance_oracle.extra_metadata())
    return Spanner(
        base=graph,
        subgraph=spanner_graph,
        stretch=t,
        algorithm="greedy",
        metadata=metadata,
    )


def greedy_spanner_of_metric(
    metric: FiniteMetric,
    t: float,
    *,
    oracle: str = "cached",
    progress: Optional[ProgressCallback] = None,
) -> Spanner:
    """Run the greedy algorithm on the complete graph of a finite metric space.

    This is the Section 4/5 setting of the paper: the metric space ``(M, δ)``
    is viewed as the complete weighted graph over its points, and the greedy
    algorithm examines all ``n·(n-1)/2`` interpoint distances in
    non-decreasing order.

    The complete graph is never materialized: the examination order comes
    from the streaming pipeline (:func:`sorted_pair_stream`, identical
    order and floats to the materialized sort) and the returned spanner's
    ``base`` is a lazy :class:`MetricClosure` view, so peak memory is
    ``O(n + |spanner|)`` instead of ``Θ(n²)``.
    """
    closure = MetricClosure(metric)
    spanner = greedy_spanner(
        closure,
        t,
        oracle=oracle,
        progress=progress,
        edges=sorted_pair_stream(metric),
    )
    spanner.algorithm = "greedy-metric"
    return spanner

