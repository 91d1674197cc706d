"""Greedy builds pinned byte for byte: the edge set's sha and every counter.

The values were recorded on the packed-pair coverage set, before the
per-source ball sets replaced it, so any change to the coverage engine that
moves a verdict, a hit, a miss or a settle fails here.  ``coverage_entries``
(ids held across the ball sets) is pinned separately: it measures the
representation, which a coverage change may legitimately shrink.  The
relabelled bucketed row was recorded while the greedy loop still ran on
labels; its shuffled string vertices make the loop's ids differ from both
the labels and their ``repr`` order.

The metric edge check is pinned the same way on the ``metric-build``
benchmark size: its counters and ``max_stretch`` were recorded on the
per-source heap kernel, before metric bases moved to the lockstep block
kernel, which must reproduce them exactly.

Repair is pinned on the bucketed row: its 10 heaviest spanner edges fail,
and the replayed suffix must match a full rebuild.

The query engine is pinned on a skewed stream whose parked searches do not
all fit, so the rule that picks which searches stay parked shows in every
counter it pins.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from repro.core import query_engine
from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.query_engine import QueryEngine, reference_queries_ids
from repro.experiments.query_bench import skewed_batches
from repro.graph.generators import bucketed_geometric_graph
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.generators import uniform_points
from repro.service.workers import canonical_spanner_edges
from repro.spanners.registry import build_spanner
from repro.spanners.verification import verify_spanner_edges_detailed


def _uniform_metric():
    return greedy_spanner_of_metric(uniform_points(120, seed=7), 1.5)


def _bucketed_graph():
    n, degree = 400, 16.0
    radius = math.sqrt(degree / (math.pi * n))
    return greedy_spanner(bucketed_geometric_graph(n, radius, seed=3), 2.0)


def _relabelled_bucketed_graph():
    """The bucketed row's graph with vertex ``i`` named ``f"v{i}"`` and its
    vertices and edges inserted in shuffled orders, so the build's dense ids
    follow neither the labels nor their ``repr`` order."""
    n, degree = 400, 16.0
    radius = math.sqrt(degree / (math.pi * n))
    source = bucketed_geometric_graph(n, radius, seed=3)
    rng = random.Random(3)
    vertices = list(source.vertices())
    edges = list(source.edges())
    rng.shuffle(vertices)
    rng.shuffle(edges)
    graph = WeightedGraph(vertices=[f"v{i}" for i in vertices])
    for u, v, weight in edges:
        graph.add_edge(f"v{u}", f"v{v}", weight)
    return greedy_spanner(graph, 2.0)


PINNED = {
    "uniform-n120-seed7-t1.5": (
        _uniform_metric,
        "7ae2581daa37354e84d99010545779e99837e360c7a59b5fff1e5e09b1b2f9ed",
        {
            "distance_queries": 7140, "dijkstra_settles": 23337,
            "cache_hits": 6224, "cache_misses": 916,
            "balls_resumed": 218, "settles_resumed": 16928,
            "edges_added": 213, "peak_cached_bounds": 213,
        },
        13922,
    ),
    "bucketed-n400-d16-seed3-t2": (
        _bucketed_graph,
        "7aa7032a39c1dec988df7198affbc02276c4dbfcdb7f76f3c224e67ce8a5e2c2",
        {
            "distance_queries": 2950, "dijkstra_settles": 13372,
            "cache_hits": 1762, "cache_misses": 1188,
            "balls_resumed": 0, "settles_resumed": 0,
            "edges_added": 554, "peak_cached_bounds": 554,
        },
        8108,
    ),
    "bucketed-n400-d16-seed3-t2-relabelled": (
        _relabelled_bucketed_graph,
        "5cc4439e662f608b1d2ef1483ec7f5ef60c206bac82a02006bdc1abc8331fe81",
        {
            "distance_queries": 2950, "dijkstra_settles": 13404,
            "cache_hits": 1764, "cache_misses": 1186,
            "balls_resumed": 0, "settles_resumed": 0,
            "edges_added": 554, "peak_cached_bounds": 554,
        },
        8163,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_greedy_build_is_pinned(name):
    build, sha, counters, coverage_entries = PINNED[name]
    spanner = build()
    edges = json.dumps(canonical_spanner_edges(spanner)).encode()
    assert hashlib.sha256(edges).hexdigest() == sha
    assert {key: spanner.metadata[key] for key in counters} == counters
    assert spanner.metadata["coverage_entries"] == coverage_entries


#: The bucketed row's spanner with its 10 heaviest edges (canonical
#: ``(w, repr(u), repr(v))`` order) failed, repaired on the default oracle.
PINNED_REPAIR = {
    "repair_settles": 8074, "rebuild_settles": 13160,
    "replayed_edges": 569, "kept_edges": 544, "repair_edges_added": 3,
}


def test_heaviest_band_repair_is_pinned():
    spanner = _bucketed_graph()
    edges = sorted(spanner.subgraph.edges(), key=lambda e: (e[2], repr(e[0]), repr(e[1])))
    failed = [(u, v) for u, v, _ in edges[-10:]]
    result = spanner.repair(failed, cross_check=True)
    assert result.matches_rebuild and result.verified
    row = result.counters()
    assert {key: row[key] for key in PINNED_REPAIR} == PINNED_REPAIR


#: ``uniform_points(250, 2, seed)`` → ``greedy`` at ``t = 1.5``, checked at 1.5:
#: (verify_settles, verify_sources, verify_edges_checked, max_stretch).
PINNED_METRIC_CHECKS = {
    1: (61540, 249, 31125, 1.4994943004334709),
    2: (61428, 249, 31125, 1.4972556190575055),
    3: (61580, 249, 31125, 1.4992145529198169),
}


@pytest.mark.parametrize("seed", sorted(PINNED_METRIC_CHECKS))
def test_metric_edge_check_is_pinned(seed):
    spanner = build_spanner("greedy", uniform_points(250, 2, seed=seed), 1.5)
    report = verify_spanner_edges_detailed(spanner.subgraph, spanner.base, 1.5)
    assert report.ok and report.witness is None
    assert (
        report.settles, report.sources, report.edges_checked, report.max_stretch
    ) == PINNED_METRIC_CHECKS[seed]


#: The skewed stream's 40 cycles (120 batches) on the greedy ``t = 2``
#: spanner of a bucketed n = 2000, degree-16 graph, with 16 parked searches.
#: The least-recently-used rule this replaced read settles 1,069,619,
#: resumed 77, sources 876 and evicted 783.
PINNED_QUERY_STREAM = {
    "engine_settles": 536888, "engine_resumed": 426,
    "engine_sources": 876, "engine_evicted": 434,
}


def test_skewed_query_stream_is_pinned(monkeypatch):
    n, degree = 2000, 16.0
    radius = math.sqrt(degree / (math.pi * n))
    spanner = greedy_spanner(bucketed_geometric_graph(n, radius, seed=3), 2.0)
    monkeypatch.setattr(query_engine, "PARKED_SLOTS", 16 * n)
    engine = QueryEngine(spanner.subgraph)
    batches = skewed_batches(n)
    answers = [engine.run_queries_ids(sources, targets) for sources, targets in batches]
    counters = engine.counters()
    assert {key: counters[key] for key in PINNED_QUERY_STREAM} == PINNED_QUERY_STREAM
    for (sources, targets), got in list(zip(batches, answers))[::20]:
        assert got == reference_queries_ids(engine.indexed, sources, targets)[0]
