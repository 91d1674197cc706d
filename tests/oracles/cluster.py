"""The seed cluster kernels and the two cluster engines built on them.

:func:`indexed_ball` is the seed bounded search with no target (every
vertex within a radius), and :func:`cluster_by_balls` the seed clustering:
one ball per centre.  The batched sweep
:func:`~repro.graph.shortest_paths.indexed_greedy_clustering` must equal
it exactly (same centres, assignments and float offsets).

:class:`ReplayClusterGraph` records the hierarchy history the production
:class:`~repro.core.cluster_graph.ClusterGraph` does not keep (the radius of
every level, the chronological spanner edge log, and the log length when
each level was entered) and answers every transition by replaying it: the
level-0 spanner prefix is clustered with one ball per centre, then each
later level patches in its bucket's edges and redoes its merge on the
previous level's cluster graph — ``O(n + m)`` per transition and growing
with the level count.  The incremental merge must reach the identical
state (centres, assignments, offsets and bounds).

:class:`VerifyingClusterGraph` is the production engine with every merge
cross-checked as it happens: the new centres, assignments and offsets
must equal the ones the per-centre-ball clustering of the previous
cluster graph implies, and the remapped bounds a full rescan of the
spanner edges; a mismatch raises.

Swap either into Approximate-Greedy with
``monkeypatch.setattr(repro.core.approximate_greedy, "ClusterGraph",
ReplayClusterGraph)`` (or ``VerifyingClusterGraph``).
"""

from __future__ import annotations

import heapq

from repro.core.cluster_graph import ClusterGraph, _patch_bound
from repro.graph.indexed_graph import IndexedGraph


def indexed_ball(graph: IndexedGraph, source: int, radius: float) -> dict[int, float]:
    """Return ``{vertex_id: distance}`` for every vertex within ``radius`` of ``source``."""
    settled: dict[int, float] = {}
    neighbour_ids, neighbour_weights = graph.adjacency_arrays()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, vertex = heapq.heappop(heap)
        if dist > radius:
            break
        if vertex in settled:
            continue
        settled[vertex] = dist
        for neighbour, weight in zip(neighbour_ids[vertex], neighbour_weights[vertex]):
            if neighbour not in settled and dist + weight <= radius:
                heapq.heappush(heap, (dist + weight, neighbour))
    return settled


def cluster_by_balls(
    graph: IndexedGraph, radius: float
) -> tuple[list[int], list[int], list[float], int]:
    """The seed clustering: one :func:`indexed_ball` per centre.

    Scans ids in order, promotes uncovered ids to centres and absorbs their
    balls, keeping the closest centre per vertex (earliest wins ties).
    Returns ``(centres, centre_of, offsets, settles)`` like
    :func:`~repro.graph.shortest_paths.indexed_greedy_clustering`; per-centre
    balls settle every vertex once per covering ball.
    """
    n = graph.number_of_vertices
    centres: list[int] = []
    centre: list[int] = [-1] * n
    offsets: list[float] = [0.0] * n
    settles = 0
    for vid in range(n):
        if centre[vid] >= 0:
            continue
        centres.append(vid)
        ball = indexed_ball(graph, vid, radius)
        settles += len(ball)
        for member, distance in ball.items():
            if centre[member] < 0 or distance < offsets[member]:
                centre[member] = vid
                offsets[member] = distance
    return centres, centre, offsets, settles


class ReplayClusterGraph(ClusterGraph):
    """A :class:`ClusterGraph` whose transitions replay the whole history."""

    def _build(self) -> None:
        super()._build()
        # This build becomes level 0 of a fresh history.
        self._edge_log = list(self.index.edges())
        self._levels = [self.radius]
        self._level_edge_counts = [len(self._edge_log)]

    def notify_edge_added_ids(self, uid: int, vid: int, weight: float) -> None:
        if not self.index.has_edge_ids(uid, vid):
            self._edge_log.append((uid, vid, weight))
        super().notify_edge_added_ids(uid, vid, weight)

    def _merge(self, new_radius: float) -> None:
        self._levels.append(new_radius)
        self._level_edge_counts.append(len(self._edge_log))
        self.rebuild_count += 1
        self._dirty = False
        self._invalidate_views()

        index = self.index
        n = index.number_of_vertices
        log = self._edge_log
        counts = self._level_edge_counts
        levels = self._levels

        graph = IndexedGraph(vertices=(index.vertex_of(vid) for vid in range(n)))
        for uid, vid, weight in log[: counts[0]]:
            graph.append_edge_unchecked_ids(uid, vid, weight)

        centres, centre_vid, offsets, settles = cluster_by_balls(graph, levels[0])
        bounds: dict[tuple[int, int], float] = {}
        for uid, vid, weight in graph.edges():
            cu, cv = centre_vid[uid], centre_vid[vid]
            if cu != cv:
                _patch_bound(bounds, cu, cv, offsets[uid] + weight + offsets[vid])

        for level in range(1, len(levels)):
            # Patch in the edges added while the previous level was active.
            for uid, vid, weight in log[counts[level - 1] : counts[level]]:
                graph.append_edge_unchecked_ids(uid, vid, weight)
                cu, cv = centre_vid[uid], centre_vid[vid]
                if cu != cv:
                    _patch_bound(bounds, cu, cv, offsets[uid] + weight + offsets[vid])

            # Redo this level's merge on the previous level's cluster graph.
            cluster_index = IndexedGraph(vertices=centres)
            for (cu, cv), bound in bounds.items():
                cluster_index.append_edge_unchecked(cu, cv, bound)
            budget = levels[level] - levels[level - 1]
            super_cvids, super_of, deltas, merge_settles = cluster_by_balls(
                cluster_index, budget
            )
            settles += merge_settles

            super_spanner = [centres[super_of[cvid]] for cvid in range(len(centres))]
            cvid_of = {centre: cvid for cvid, centre in enumerate(centres)}
            for v in range(n):
                cvid = cvid_of[centre_vid[v]]
                delta = deltas[cvid]
                if delta:
                    offsets[v] += delta
                centre_vid[v] = super_spanner[cvid]

            remapped: dict[tuple[int, int], float] = {}
            for (cu, cv), bound in bounds.items():
                iu, iv = cvid_of[cu], cvid_of[cv]
                new_cu, new_cv = super_spanner[iu], super_spanner[iv]
                if new_cu != new_cv:
                    _patch_bound(remapped, new_cu, new_cv, deltas[iu] + deltas[iv] + bound)
            centres = [centres[cvid] for cvid in super_cvids]
            bounds = remapped

        self.clustering_settles += settles
        self._centres = centres
        self._centre_vid = centre_vid
        self._offset = offsets
        self._cluster_bounds = bounds
        self._rebuild_cluster_index()
        self.radius = levels[-1]


class VerifyingClusterGraph(ClusterGraph):
    """A :class:`ClusterGraph` whose every merge is checked against the seed kernels."""

    def _merge(self, new_radius: float) -> None:
        budget = new_radius - self.radius
        previous_centres = self._centres
        ref_super_cvids, ref_super_of, ref_deltas, _ = cluster_by_balls(
            self._cluster_index, budget
        )
        cvid_of = {centre: cvid for cvid, centre in enumerate(previous_centres)}
        expected_centre_vid = []
        expected_offset = []
        for v, centre in enumerate(self._centre_vid):
            cvid = cvid_of[centre]
            expected_centre_vid.append(previous_centres[ref_super_of[cvid]])
            expected_offset.append(self._offset[v] + ref_deltas[cvid])

        super()._merge(new_radius)

        if (
            self._centres != [previous_centres[cvid] for cvid in ref_super_cvids]
            or self._centre_vid != expected_centre_vid
            or self._offset != expected_offset
        ):
            raise RuntimeError("incremental merge diverged from the per-centre-ball reference")
        # The remap adds the deltas first and the rescan folds them into the
        # offsets, so the bounds agree up to float association order.
        rescan: dict[tuple[int, int], float] = {}
        for uid, vid, weight in self.index.edges():
            cu, cv = self._centre_vid[uid], self._centre_vid[vid]
            if cu != cv:
                _patch_bound(rescan, cu, cv, self._offset[uid] + weight + self._offset[vid])
        if set(rescan) != set(self._cluster_bounds):
            raise RuntimeError("remapped cluster edges disagree with the spanner-edge rescan")
        for key, bound in rescan.items():
            remapped = self._cluster_bounds[key]
            if abs(remapped - bound) > 1e-9 * max(1.0, abs(bound)):
                raise RuntimeError(
                    f"remapped bound {remapped} diverged from rescan bound {bound} "
                    f"for cluster pair {key}"
                )
