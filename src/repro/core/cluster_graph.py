"""Cluster graphs: the coarse distance structure behind the approximate-greedy algorithm.

Section 5.1 of the paper sketches Algorithm ``Approximate-Greedy``
(Das–Narasimhan 1997, Gudmundsson–Levcopoulos–Narasimhan 2002): instead of
answering each greedy distance query exactly on the growing spanner, the
algorithm maintains "a much simpler and coarser *cluster graph* that
approximates the original distances, on which the distance queries are
performed", and the cluster graph is refreshed whenever the algorithm moves
to the next bucket of edge weights.

The :class:`ClusterGraph` here implements that structure with one invariant
that the correctness of our simulation rests on:

    **approximate distances never underestimate** — for every pair ``(u, v)``
    the value returned by :meth:`approximate_distance` is an upper bound on
    the true distance ``δ_H(u, v)`` in the clustered graph ``H``.

Because the greedy simulation only *skips* an edge when the approximate
distance is already within the stretch threshold, never-underestimating
guarantees that every skipped edge genuinely has a within-stretch path, so
the output is a valid spanner.  Overestimation can only cause extra edges to
be kept, which affects the constants (measured by the experiments) but never
the stretch guarantee.

Cluster construction: given a radius ``r``, cluster centres are chosen
greedily (an ``r``-net of the current spanner's vertices under spanner
distances restricted to a bounded search), every vertex is assigned to a
centre within spanner distance ``r``, and the cluster graph has one vertex per
centre with an edge between two centres whenever some spanner edge joins
their clusters; the cluster edge weight is a *path upper bound*
``δ(c₁, x) + w(x, y) + δ(y, c₂)``.

When the radius scales up at a bucket transition, the clusters follow the
DN97/GLN02 *hierarchy*: new centres are chosen greedily from the previous
level's centres, new clusters are unions of old clusters, and the centre
selection and absorption run on the previous **cluster graph** (one node per
old centre) with radius budget ``r_new − r_old``.  Offsets compose
additively (``offset_new(v) = offset_old(v) + δ_cluster(old centre, new
centre)``, an upper bound by the triangle inequality, and at most ``r_old +
(r_new − r_old) = r_new``), and the new inter-cluster bounds are a *remap*
of the old ones: every vertex of an old cluster shifts by the same delta, so

    ``bound_new(C, C′) = min over old pairs (c, c′) of
    Δ(c) + Δ(c′) + bound_old(c, c′)``

— equal to a full rescan of the spanner edges, without performing one
(``docs/PERFORMANCE.md`` spells out the argument; the tests'
``VerifyingClusterGraph`` in ``tests/oracles/cluster.py`` re-derives it
numerically after every merge).

The level is maintained in place: one batched multi-source sweep over the
previous cluster graph plus the pairwise bound remap — heap work
proportional to the cluster nodes actually touched, not ``O(n + m)``.  The
tests compare it against a replay oracle (``tests/oracles/cluster.py``)
that recomputes every level from nothing with one ball search per centre;
both produce the *identical* cluster structure (same centres, assignments,
offsets and bounds), so every query answers the same and the simulated
greedy makes the same decisions.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import indexed_dijkstra_with_cutoff, indexed_greedy_clustering
from repro.graph.weighted_graph import Vertex, WeightedGraph


def _patch_bound(
    bounds: dict[tuple[int, int], float], cu: int, cv: int, bound: float
) -> bool:
    """Min-update the inter-cluster bound of the (unordered) centre pair.

    Returns True when the bound was inserted or improved.  Every place a
    cluster edge is derived — initial scan, notify patch, merge remap and
    the tests' replay and verifying oracles — goes through this one helper,
    which is what keeps them numerically identical.
    """
    key = (cu, cv) if cu <= cv else (cv, cu)
    existing = bounds.get(key)
    if existing is None or bound < existing:
        bounds[key] = bound
        return True
    return False


class ClusterGraph:
    """A coarse approximation of a spanner-in-progress at a given radius scale.

    Parameters
    ----------
    spanner:
        The current (growing) spanner ``H``.  The cluster graph keeps a
        reference and answers queries with respect to the state of ``H`` at
        construction time plus any edges added through
        :meth:`notify_edge_added`.
    radius:
        The cluster radius ``r``: every vertex is within spanner distance
        ``r`` of its cluster centre.

    The spanner is mirrored into one persistent flat-array
    :class:`IndexedGraph` (:attr:`index`) that grows via
    :meth:`notify_edge_added` and is *never* re-snapshotted between bucket
    transitions; all hot-path state (assignments, offsets) lives in flat
    lists indexed by its dense vertex ids.
    """

    def __init__(self, spanner: WeightedGraph, radius: float) -> None:
        self.spanner = spanner
        self.radius = float(radius)
        self.index = IndexedGraph.from_weighted_graph(spanner)

        self._centres: list[int] = []
        self._centre_vid: list[int] = []
        self._offset: list[float] = []
        self._cluster_bounds: dict[tuple[int, int], float] = {}
        self._cluster_index = IndexedGraph()
        self._dirty = False

        self.rebuild_count = 0
        self.merge_count = 0
        self.skipped_rebuilds = 0
        self.skipped_transitions = 0
        self.clustering_settles = 0
        self.query_count = 0
        self.query_settles = 0

        self._centre_of_view: dict[Vertex, Vertex] | None = None
        self._offset_of_view: dict[Vertex, float] | None = None
        self._centres_view: list[Vertex] | None = None
        self._graph_view: WeightedGraph | None = None

        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Cluster all vertices of the current spanner, starting a fresh hierarchy.

        One batched multi-source sweep (:func:`indexed_greedy_clustering`)
        selects the centres and assigns every vertex, then a single pass over
        the spanner edges derives the inter-cluster bounds — O(n + m) total.
        """
        self.rebuild_count += 1
        self._dirty = False
        self._invalidate_views()

        index = self.index
        if self.spanner.number_of_edges != index.number_of_edges:
            # The spanner was mutated behind our back (not through
            # notify_edge_added): fall back to a fresh snapshot.
            index = self.index = IndexedGraph.from_weighted_graph(self.spanner)

        centres, centre_vid, offsets, settles = indexed_greedy_clustering(index, self.radius)
        self.clustering_settles += settles
        self._centres = centres
        self._centre_vid = centre_vid
        self._offset = offsets

        bounds: dict[tuple[int, int], float] = {}
        for uid, vid, weight in index.edges():
            cu, cv = centre_vid[uid], centre_vid[vid]
            if cu != cv:
                _patch_bound(bounds, cu, cv, offsets[uid] + weight + offsets[vid])
        self._cluster_bounds = bounds
        self._rebuild_cluster_index()

    def _rebuild_cluster_index(self) -> None:
        """Materialise ``_cluster_bounds`` into the flat search structure.

        Cluster nodes are the centres' *spanner vertex ids*, interned in
        centre-creation order — so cluster node ``i`` is ``self._centres[i]``,
        the property the incremental merge relies on.
        """
        cluster_index = IndexedGraph(vertices=self._centres)
        for (cu, cv), bound in self._cluster_bounds.items():
            # Bounds are keyed by unique pairs, so unchecked appends are safe.
            cluster_index.append_edge_unchecked(cu, cv, bound)
        self._cluster_index = cluster_index

    def rebuild(self, radius: float | None = None) -> None:
        """Re-cluster from scratch, optionally at a new radius.

        A rebuild at the *same* radius with no edge added since the last
        build is skipped outright (the result would be identical); the skip
        is counted in :attr:`skipped_rebuilds`.  Edges added to the spanner
        *behind our back* (not through :meth:`notify_edge_added`) defeat the
        dirty flag, so the skip additionally requires the persistent index
        to still agree with the spanner's edge count.
        """
        value = self.radius if radius is None else float(radius)
        if (
            not self._dirty
            and value == self.radius
            and self.spanner.number_of_edges == self.index.number_of_edges
        ):
            self.skipped_rebuilds += 1
            return
        self.radius = value
        self._build()

    def transition(self, radius: float) -> None:
        """Move to a new (larger) radius — the per-bucket refresh entry point.

        Appends a level to the hierarchy by merging the previous level's
        clusters in place (:meth:`_merge`).  A transition to the
        *current* radius is a no-op — cluster edges are already patched in
        place by :meth:`notify_edge_added` — and a shrinking radius (not
        produced by the bucket loop, whose radii grow monotonically) falls
        back to :meth:`rebuild`, since a hierarchy can only coarsen.
        """
        value = float(radius)
        if value < self.radius:
            self.rebuild(value)
            return
        if value == self.radius:
            self.skipped_transitions += 1
            return
        self._merge(value)

    def _merge(self, new_radius: float) -> None:
        """Incrementally coarsen the hierarchy to ``new_radius``.

        New centres are selected greedily *among the previous centres* by a
        multi-source sweep over the previous cluster graph with radius
        budget ``new_radius − radius``; every vertex's offset grows by its
        old centre's merge distance, and the inter-cluster bounds are
        remapped pairwise (see the module docstring for why the remap equals
        a full spanner-edge rescan).
        """
        budget = new_radius - self.radius
        previous_index = self._cluster_index
        previous_centres = self._centres
        k = len(previous_centres)

        super_cvids, super_of, deltas, settles = indexed_greedy_clustering(
            previous_index, budget
        )
        self.merge_count += 1
        self.clustering_settles += settles
        self._invalidate_views()

        # Spanner vertex id of the new super-centre of each old cluster node.
        super_spanner = [previous_centres[super_of[cvid]] for cvid in range(k)]
        cvid_of = {centre: cvid for cvid, centre in enumerate(previous_centres)}

        centre_vid = self._centre_vid
        offset = self._offset
        for v in range(len(centre_vid)):
            cvid = cvid_of[centre_vid[v]]
            delta = deltas[cvid]
            if delta:
                offset[v] += delta
            centre_vid[v] = super_spanner[cvid]

        bounds: dict[tuple[int, int], float] = {}
        for (cu, cv), bound in self._cluster_bounds.items():
            iu, iv = cvid_of[cu], cvid_of[cv]
            new_cu, new_cv = super_spanner[iu], super_spanner[iv]
            # Old clusters that merged make the edge internal — dropped.
            if new_cu != new_cv:
                _patch_bound(bounds, new_cu, new_cv, deltas[iu] + deltas[iv] + bound)

        self._centres = [previous_centres[cvid] for cvid in super_cvids]
        self._cluster_bounds = bounds
        self._rebuild_cluster_index()
        self.radius = new_radius
        self._dirty = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def number_of_clusters(self) -> int:
        """The number of clusters (vertices of the cluster graph)."""
        return len(self._centres)

    def approximate_distance_ids(self, uid: int, vid: int, cutoff: float) -> float:
        """Id-based :meth:`approximate_distance` — the bucket loop's hot query."""
        self.query_count += 1
        if uid == vid:
            return 0.0
        offset = self._offset
        centre_vid = self._centre_vid
        cu, cv = centre_vid[uid], centre_vid[vid]
        slack = offset[uid] + offset[vid]
        if cu == cv:
            return slack if slack <= cutoff else math.inf
        budget = cutoff - slack
        if budget < 0:
            return math.inf
        cluster_index = self._cluster_index
        distance, settled = indexed_dijkstra_with_cutoff(
            cluster_index,
            cluster_index.id_of(cu),
            cluster_index.id_of(cv),
            budget,
        )
        self.query_settles += len(settled)
        if distance == math.inf:
            return math.inf
        return distance + slack

    def approximate_distance(self, u: Vertex, v: Vertex, cutoff: float) -> float:
        """Return an upper bound on ``δ_H(u, v)``, or ``inf`` if it exceeds ``cutoff``.

        The bound is ``offset(u) + δ_cluster(centre(u), centre(v)) + offset(v)``
        computed by a cutoff-pruned Dijkstra on the cluster graph.  By the
        triangle inequality and the path-upper-bound edge weights this never
        underestimates the true spanner distance.
        """
        return self.approximate_distance_ids(
            self.index.id_of(u), self.index.id_of(v), cutoff
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def notify_edge_added_ids(self, uid: int, vid: int, weight: float) -> None:
        """Id-based :meth:`notify_edge_added` for endpoints already interned."""
        if self.index.has_edge_ids(uid, vid):
            # Weight overwrite: the greedy loop adds every edge at most
            # once, so this path only serves ad-hoc callers.
            self.index.add_edge_ids(uid, vid, weight)
        else:
            self.index.append_edge_unchecked_ids(uid, vid, weight)
        self._dirty = True
        centre_vid = self._centre_vid
        cu, cv = centre_vid[uid], centre_vid[vid]
        if cu == cv:
            return
        offset = self._offset
        bound = offset[uid] + weight + offset[vid]
        if _patch_bound(self._cluster_bounds, cu, cv, bound):
            self._cluster_index.add_edge(cu, cv, bound)
            self._graph_view = None

    def notify_edge_added(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Incorporate a newly added spanner edge into the cluster graph.

        The clusters themselves are left untouched (they are refreshed on the
        next bucket transition); the edge is appended to the persistent
        spanner index and the inter-cluster bound is patched in place, which
        keeps the never-underestimate invariant.
        """
        self.notify_edge_added_ids(self.index.id_of(u), self.index.id_of(v), weight)

    def check_never_underestimates(
        self, pairs: Iterable[tuple[Vertex, Vertex]], *, tolerance: float = 1e-9
    ) -> bool:
        """Verify the core invariant on a sample of vertex pairs (used by tests)."""
        from repro.graph.shortest_paths import pair_distance

        for u, v in pairs:
            approx = self.approximate_distance(u, v, math.inf)
            true = pair_distance(self.spanner, u, v)
            if approx + tolerance < true:
                return False
        return True

    # ------------------------------------------------------------------
    # Compatibility views (cold paths: tests, demos, reporting)
    # ------------------------------------------------------------------
    def _invalidate_views(self) -> None:
        self._centre_of_view = None
        self._offset_of_view = None
        self._centres_view = None
        self._graph_view = None

    @property
    def centre_of(self) -> dict[Vertex, Vertex]:
        """Vertex-object view of the assignment array (built lazily)."""
        if self._centre_of_view is None:
            vertex_of = self.index.vertex_of
            self._centre_of_view = {
                vertex_of(vid): vertex_of(centre)
                for vid, centre in enumerate(self._centre_vid)
            }
        return self._centre_of_view

    @property
    def offset_of(self) -> dict[Vertex, float]:
        """Vertex-object view of the offset array (built lazily)."""
        if self._offset_of_view is None:
            vertex_of = self.index.vertex_of
            self._offset_of_view = {
                vertex_of(vid): offset for vid, offset in enumerate(self._offset)
            }
        return self._offset_of_view

    @property
    def centres(self) -> list[Vertex]:
        """The cluster centres as vertex objects, in creation order."""
        if self._centres_view is None:
            vertex_of = self.index.vertex_of
            self._centres_view = [vertex_of(vid) for vid in self._centres]
        return self._centres_view

    @property
    def graph(self) -> WeightedGraph:
        """The cluster graph as a :class:`WeightedGraph` (built lazily)."""
        if self._graph_view is None:
            vertex_of = self.index.vertex_of
            graph = WeightedGraph(vertices=(vertex_of(vid) for vid in self._centres))
            for (cu, cv), bound in self._cluster_bounds.items():
                graph.add_edge(vertex_of(cu), vertex_of(cv), bound)
            self._graph_view = graph
        return self._graph_view

    def __repr__(self) -> str:
        return (
            f"ClusterGraph(clusters={self.number_of_clusters}, "
            f"radius={self.radius:.4g}, edges={len(self._cluster_bounds)})"
        )
