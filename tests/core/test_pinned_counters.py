"""Greedy builds pinned byte for byte: the edge set's sha and every counter.

The values were recorded on the packed-pair coverage set, before the
per-source ball sets replaced it, so any change to the coverage engine that
moves a verdict, a hit, a miss or a settle fails here.  ``coverage_entries``
(ids held across the ball sets) is pinned separately: it measures the
representation, which a coverage change may legitimately shrink.

The metric edge check is pinned the same way on the ``metric-build``
benchmark size: its counters and ``max_stretch`` were recorded on the
per-source heap kernel, before metric bases moved to the lockstep block
kernel, which must reproduce them exactly.

The query engine is pinned on a skewed stream whose parked searches do not
all fit, so the rule that picks which searches stay parked shows in every
counter it pins.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.core import query_engine
from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.query_engine import QueryEngine, reference_queries_ids
from repro.experiments.query_bench import skewed_batches
from repro.graph.generators import bucketed_geometric_graph
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
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_greedy_build_is_pinned(name):
    build, sha, counters, coverage_entries = PINNED[name]
    spanner = build()
    edges = json.dumps(canonical_spanner_edges(spanner)).encode()
    assert hashlib.sha256(edges).hexdigest() == sha
    assert {key: spanner.metadata[key] for key in counters} == counters
    assert spanner.metadata["coverage_entries"] == coverage_entries


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
