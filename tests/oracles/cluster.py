"""The replay cluster engine: every level recomputed from nothing.

:class:`ReplayClusterGraph` records the hierarchy history the production
:class:`~repro.core.cluster_graph.ClusterGraph` does not keep (the radius of
every level, the chronological spanner edge log, and the log length when
each level was entered) and answers every transition by replaying it: the
level-0 spanner prefix is clustered with one ball per centre, then each
later level patches in its bucket's edges and redoes its merge on the
previous level's cluster graph — ``O(n + m)`` per transition and growing
with the level count.  The incremental merge must reach the identical
state (centres, assignments, offsets and bounds).

Swap it into Approximate-Greedy with
``monkeypatch.setattr(repro.core.approximate_greedy, "ClusterGraph",
ReplayClusterGraph)``.
"""

from __future__ import annotations

from repro.core.cluster_graph import ClusterGraph, _cluster_by_balls, _patch_bound
from repro.graph.indexed_graph import IndexedGraph


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

        centres, centre_vid, offsets, settles = _cluster_by_balls(graph, levels[0])
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
            super_cvids, super_of, deltas, merge_settles = _cluster_by_balls(
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
