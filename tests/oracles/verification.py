"""The seed per-pair stretch checks the batch verification engine replaces.

One dict-based Dijkstra per base edge or per profile source;
:func:`max_edge_stretch_reference` is the seed
``Spanner.max_stretch_over_edges`` loop.  :mod:`repro.spanners.verification`
must reproduce these verdicts, maximum edge stretches, profiles and pair
counts *bit for bit* (see its module docstring for why
that holds); lazy closure bases read base distances from the metric, since
searching the Θ(n²) closure per pair is the wall the engine removes.

:func:`reference_record` runs both seed checks on a ``repro bench verify``
row's spanner once per test session, keyed by the row's workload key: the
n=150 theta row alone takes about 7 s, and three tests compare against it.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

from repro.core.spanner import Spanner
from repro.experiments.bench import instance_and_metric
from repro.experiments.overlay_bench import DEFAULT_BUILDER_PARAMS
from repro.experiments.verify_bench import workload_key
from repro.graph.shortest_paths import dijkstra, pair_distance
from repro.graph.weighted_graph import Vertex, WeightedGraph
from repro.spanners.verification import (
    EdgeVerification,
    ProfileStats,
    StretchProfile,
    _reduce_profile,
)
from repro.spanners.registry import build_spanner

#: :func:`reference_record` results by verify-row workload key.
_REFERENCE_RECORDS: dict[str, dict[str, float]] = {}


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


def profile_reference(
    spanner: Spanner,
    *,
    sources: Optional[Sequence[Vertex]] = None,
) -> tuple[StretchProfile, ProfileStats]:
    """The seed stretch profile, shaped like :func:`stretch_profile`.

    One dict Dijkstra pair per source; pairs are deduped by shared-id order
    for every vertex type and targets enumerated in id order, so the
    per-source rows line up with the engine's bit for bit.
    """
    vertices = list(spanner.base.vertices())
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


def bench_spanner(workload: dict[str, object]) -> Spanner:
    """The spanner a verify row checks, built exactly as the bench builds it."""
    graph, metric = instance_and_metric(workload)
    builder = str(workload["builder"])
    return build_spanner(
        builder,
        metric if metric is not None else graph,
        float(workload["stretch"]),
        **DEFAULT_BUILDER_PARAMS.get(builder, {}),
    )


def reference_record(workload: dict[str, object]) -> dict[str, float]:
    """The seed checks on a verify row's spanner: verdict, profile, work.

    Times :func:`verify_edges_reference` plus :func:`profile_reference` on
    :func:`bench_spanner` and returns ``seconds``, ``verify_ok``, the
    verification counters and the profile row.  Computed once per session
    per workload key; callers must not mutate the returned record.
    """
    key = workload_key(workload)
    if key not in _REFERENCE_RECORDS:
        spanner = bench_spanner(workload)
        stretch = float(workload["stretch"])
        start = time.perf_counter()
        verification = verify_edges_reference(spanner.subgraph, spanner.base, stretch)
        profile, _ = profile_reference(spanner)
        seconds = time.perf_counter() - start
        _REFERENCE_RECORDS[key] = {
            "seconds": seconds,
            **verification.counters(),
            "verify_ok": float(verification.ok),
            **profile.as_row(),
        }
    return _REFERENCE_RECORDS[key]
