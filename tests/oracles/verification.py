"""The seed per-pair stretch checks the batch verification engine replaces.

One dict-based Dijkstra per base edge, per profile source or per sampled
pair; :func:`max_edge_stretch_reference` is the seed
``Spanner.max_stretch_over_edges`` loop.  :mod:`repro.spanners.verification`
must reproduce these verdicts, maximum edge stretches, profiles and pair
counts *bit for bit* (see its module docstring for why
that holds); lazy closure bases read base distances from the metric, since
searching the Θ(n²) closure per pair is the wall the engine removes.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from repro.core.spanner import Spanner
from repro.graph.shortest_paths import dijkstra, pair_distance
from repro.graph.weighted_graph import Vertex, WeightedGraph
from repro.spanners.verification import (
    EdgeVerification,
    ProfileStats,
    StretchProfile,
    _profile_from_samples,
    _reduce_profile,
)


def verify_edges_reference(
    subgraph: WeightedGraph, base: WeightedGraph, t: float, tolerance: float = 1e-9
) -> EdgeVerification:
    """One early-stopping dict Dijkstra per base edge."""
    settles = 0
    edges_checked = 0
    sources: set[Vertex] = set()
    ok = True
    for u, v, weight in base.edges():
        distances, _ = dijkstra(subgraph, u, targets=[v])
        settles += len(distances)
        edges_checked += 1
        sources.add(u)
        if distances.get(v, math.inf) > t * weight * (1.0 + tolerance):
            ok = False
            break
    return EdgeVerification(ok=ok, edges_checked=edges_checked, sources=len(sources), settles=settles)


def max_edge_stretch_reference(spanner: Spanner) -> float:
    """The seed ``Spanner.max_stretch_over_edges``: one dict Dijkstra per base edge.

    The maximum of ``δ_H(u, v) / w`` over the base edges, floored at 1.0
    (``inf`` when the spanner disconnects a base edge).
    """
    worst = 1.0
    for u, v, weight in spanner.base.edges():
        spanner_distance = pair_distance(spanner.subgraph, u, v)
        worst = max(worst, spanner_distance / weight)
    return worst


def _base_distance(spanner: Spanner, u: Vertex, v: Vertex) -> float:
    if getattr(spanner.base, "metric", None) is not None:
        return spanner.base.weight(u, v)
    return pair_distance(spanner.base, u, v)


def verify_sampled_reference(spanner: Spanner, *, samples: int, seed: int) -> bool:
    """The seeded pair sequence of :func:`verify_spanner_sampled`, one search per pair."""
    rng = random.Random(seed)
    vertices = list(spanner.base.vertices())
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(samples)]
    threshold = spanner.stretch * (1.0 + 1e-9)
    for u, v in pairs:
        base_distance = _base_distance(spanner, u, v)
        if base_distance == 0.0 or math.isinf(base_distance):
            continue
        if pair_distance(spanner.subgraph, u, v) > threshold * base_distance:
            return False
    return True


def profile_reference(
    spanner: Spanner,
    *,
    exact: bool = True,
    samples: int = 500,
    seed: Optional[int] = None,
    sources: Optional[Sequence[Vertex]] = None,
) -> tuple[StretchProfile, ProfileStats]:
    """The seed stretch profile, shaped like :func:`stretch_profile_detailed`.

    The exact profile runs one dict Dijkstra pair per source, dedupes pairs
    by shared-id order for every vertex type and enumerates targets in id
    order, so its per-source rows line up with the engine's bit for bit.
    The sampled profile reports no settles.
    """
    vertices = list(spanner.base.vertices())
    if not exact:
        rng = random.Random(seed)
        stretches = []
        for _ in range(samples):
            u, v = rng.sample(vertices, 2)
            original = _base_distance(spanner, u, v)
            if original == 0.0 or math.isinf(original):
                continue
            stretches.append(pair_distance(spanner.subgraph, u, v) / original)
        return _profile_from_samples(stretches), ProfileStats(sources=samples, settles=0)

    id_of = {vertex: vid for vid, vertex in enumerate(vertices)}
    metric = getattr(spanner.base, "metric", None)
    chosen = vertices if sources is None else list(sources)
    rows = []
    settles = 0
    for source in chosen:
        source_id = id_of[source]
        if metric is None:
            base_distances, _ = dijkstra(spanner.base, source)
            settles += len(base_distances)
        spanner_distances, _ = dijkstra(spanner.subgraph, source)
        settles += len(spanner_distances)
        ratios: list[float] = []
        at_one = 0
        for target in vertices[source_id + 1 :]:
            if metric is None:
                original = base_distances.get(target, math.inf)
            else:
                original = metric.distance(source, target)
            if original == 0.0 or math.isinf(original):
                continue
            ratio = spanner_distances.get(target, math.inf) / original
            ratios.append(ratio)
            if ratio <= 1.0 + 1e-9:
                at_one += 1
        if ratios:
            rows.append((len(ratios), math.fsum(ratios), max(ratios), at_one))
        else:
            rows.append((0, 0.0, -math.inf, 0))
    return _reduce_profile(rows), ProfileStats(sources=len(chosen), settles=settles)


def lemma3_reference(spanner: Spanner) -> bool:
    """Lemma 3 by brute force: copy ``H``, remove ``e``, search ``H - e``."""
    t = spanner.stretch
    for u, v, weight in list(spanner.subgraph.edges()):
        pruned = spanner.subgraph.copy()
        pruned.remove_edge(u, v)
        if pair_distance(pruned, u, v) <= t * weight * (1.0 + 1e-12):
            return False
    return True
