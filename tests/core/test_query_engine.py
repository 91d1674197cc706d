"""Property and unit tests for the batched multi-source query engine.

The engine's contract is exact: batched answers equal the seed per-query
``heapq`` path element for element (same floats, not approximately), while
running one early-stopped search per distinct source and resuming it in
later batches.  The hypothesis cases draw tie-heavy dyadic weights — where
pop ordering could actually diverge — plus disconnected graphs (``inf``
answers), repeated sources, degenerate ``source == target`` pairs, graph
mutations between batches and a parking capacity shrunk to one or two
searches.  Unit cases pin which parked search the request counts keep.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.queries import reference_queries

from repro.core import query_engine
from repro.core.query_engine import QueryEngine, reference_queries_ids
from repro.distributed.routing import RoutingScheme
from repro.errors import VertexNotFoundError
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.weighted_graph import WeightedGraph

TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def graph_with_queries(draw, max_vertices: int = 14, max_queries: int = 30):
    """A small graph (possibly disconnected) plus a paired query batch."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    connected = draw(st.booleans())
    graph = WeightedGraph(vertices=list(range(n)))
    start = 1 if connected else draw(st.integers(min_value=1, max_value=n - 1))
    for v in range(start, n):
        if connected or v > start:
            parent = draw(st.integers(min_value=0, max_value=v - 1))
            graph.add_edge(parent, v, draw(st.sampled_from(TIE_HEAVY_WEIGHTS)))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.sampled_from(TIE_HEAVY_WEIGHTS)))
    count = draw(st.integers(min_value=0, max_value=max_queries))
    vertex = st.integers(min_value=0, max_value=n - 1)
    sources = [draw(vertex) for _ in range(count)]
    targets = [draw(vertex) for _ in range(count)]
    return graph, sources, targets


@settings(max_examples=120, deadline=None)
@given(case=graph_with_queries())
def test_batched_answers_equal_reference_exactly(case):
    """Element-for-element float equality against the per-query heapq path."""
    graph, sources, targets = case
    engine = QueryEngine(graph)
    got = engine.run_queries(sources, targets)
    want, _ = reference_queries(engine.indexed, sources, targets)
    assert got == want
    assert engine.query_count == len(sources)
    assert engine.batch_count == 1
    distinct = {s for s, t in zip(sources, targets) if s != t}
    assert engine.source_count == len(distinct)


@settings(max_examples=60, deadline=None)
@given(case=graph_with_queries())
def test_single_target_batches_settle_exactly_like_reference(case):
    """With one query per distinct source, both paths settle identically.

    The engine early-stops when its last target settles; with a single
    target that is the reference's stopping rule too, and neither loop pops
    a stale entry into its counter — so the settle counters must agree
    exactly, not just approximately.
    """
    graph, sources, _ = case
    distinct = list(dict.fromkeys(sources))
    targets = [(s + 1) % graph.number_of_vertices for s in distinct]
    engine = QueryEngine(graph)
    engine.run_queries(distinct, targets)
    _, ref_settles = reference_queries(engine.indexed, distinct, targets)
    assert engine.settled_count == ref_settles


@settings(max_examples=80, deadline=None)
@given(case=graph_with_queries())
def test_multi_target_sources_settle_exactly_like_reference_to_last_target(case):
    """Each source settles exactly what the reference settles to its last target.

    The engine stops a source's search when the last of its targets settles:
    the one with the largest ``(distance, id)``.  The reference's single
    search to that target pops the same vertices, so the counters agree per
    source and in total — a loop that counted stale pops or stopped one
    target early would not.  An unreachable target drains the source's
    component in both paths.
    """
    graph, sources, targets = case
    engine = QueryEngine(graph)
    indexed = engine.indexed
    distances, _ = reference_queries(indexed, sources, targets)
    last: dict = {}
    for source, target, distance in zip(sources, targets, distances):
        if source != target:
            key = (distance, indexed.id_of(target))
            last[source] = max(last.get(source, key), key)
    expected_total = 0
    for source, (_, last_target) in last.items():
        _, expected = reference_queries_ids(
            indexed, [indexed.id_of(source)], [last_target]
        )
        pairs = [(s, t) for s, t in zip(sources, targets) if s == source]
        before = engine.settled_count
        engine.run_queries([s for s, _ in pairs], [t for _, t in pairs])
        assert engine.settled_count - before == expected
        expected_total += expected
    batched = QueryEngine(indexed)
    batched.run_queries(sources, targets)
    assert batched.settled_count == expected_total


@settings(max_examples=60, deadline=None)
@given(case=graph_with_queries())
def test_batches_are_independent(case):
    """Re-running the same batch gives the same answers, for free.

    One engine serves every batch.  The second run resumes the searches
    the first one parked: every target is already settled, so it answers
    from the parked distances with no pop and no change in any answer.
    """
    graph, sources, targets = case
    engine = QueryEngine(graph)
    first = engine.run_queries(sources, targets)
    settled = engine.settled_count
    second = engine.run_queries(sources, targets)
    assert first == second
    assert engine.settled_count == settled
    assert engine.batch_count == 2
    assert engine.resumed_count == engine.source_count // 2


@st.composite
def graph_with_batches(draw, max_batches: int = 5):
    """A small graph plus several query batches over its vertices."""
    graph, sources, targets = draw(graph_with_queries())
    vertex = st.integers(min_value=0, max_value=graph.number_of_vertices - 1)
    batches = [(sources, targets)]
    for _ in range(draw(st.integers(min_value=0, max_value=max_batches - 1))):
        count = draw(st.integers(min_value=0, max_value=12))
        batches.append(
            ([draw(vertex) for _ in range(count)], [draw(vertex) for _ in range(count)])
        )
    return graph, batches


@settings(max_examples=80, deadline=None)
@given(case=graph_with_batches())
def test_resumed_searches_settle_like_one_uninterrupted_search(case):
    """Across batches on an unchanged graph, answers stay exact, a repeated
    batch costs nothing, and parking never costs a pop.

    Per batch the engine settles at most what a fresh engine settles.  In
    total, each source settles exactly what one reference search to its
    last-settling target over *all* batches settles: a resumed search
    continues the same ``(dist, id)`` pop sequence.
    """
    graph, batches = case
    engine = QueryEngine(graph)
    indexed = engine.indexed
    last: dict = {}
    for sources, targets in batches:
        before = engine.settled_count
        got = engine.run_queries(sources, targets)
        fresh = QueryEngine(indexed)
        assert got == fresh.run_queries(sources, targets)
        assert engine.settled_count - before <= fresh.settled_count
        settled = engine.settled_count
        assert engine.run_queries(sources, targets) == got
        assert engine.settled_count == settled
        for source, target, distance in zip(sources, targets, got):
            if source != target:
                key = (distance, indexed.id_of(target))
                last[source] = max(last.get(source, key), key)
    expected = sum(
        reference_queries_ids(indexed, [indexed.id_of(source)], [target])[1]
        for source, (_, target) in last.items()
    )
    assert engine.settled_count == expected


TIE_HEAVY = st.sampled_from(TIE_HEAVY_WEIGHTS)


@st.composite
def mutating_batches(draw, max_steps: int = 6):
    """A shared graph plus steps of (mutation, batch) drawn against its
    current vertex count: append an absent edge, overwrite a weight through
    ``add_edge``, intern a vertex (isolated or attached), or nothing."""
    graph, sources, targets = draw(graph_with_queries())
    n = graph.number_of_vertices
    steps = [(("none",), sources, targets)]
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        kind = draw(st.sampled_from(("none", "append", "overwrite", "intern")))
        vertex = st.integers(min_value=0, max_value=n - 1)
        if kind == "append":
            mutation = (kind, draw(vertex), draw(vertex), draw(TIE_HEAVY))
        elif kind == "overwrite":
            mutation = (kind, draw(st.integers(min_value=0)), draw(TIE_HEAVY))
        elif kind == "intern":
            mutation = (kind, draw(st.one_of(st.none(), vertex)), draw(TIE_HEAVY))
            n += 1
        else:
            mutation = (kind,)
        vertex = st.integers(min_value=0, max_value=n - 1)
        count = draw(st.integers(min_value=0, max_value=12))
        steps.append(
            (mutation, [draw(vertex) for _ in range(count)], [draw(vertex) for _ in range(count)])
        )
    return graph, steps


def _mutate(indexed: IndexedGraph, mutation: tuple) -> None:
    kind = mutation[0]
    if kind == "append":
        _, u, v, weight = mutation
        if u != v and not indexed.has_edge_ids(u, v):
            indexed.append_edge_unchecked_ids(u, v, weight)
    elif kind == "overwrite":
        _, pick, weight = mutation
        edges = list(indexed.edges())
        if edges:
            u, v, _ = edges[pick % len(edges)]
            indexed.add_edge(indexed.vertex_of(u), indexed.vertex_of(v), weight)
    elif kind == "intern":
        _, neighbour, weight = mutation
        new = indexed.number_of_vertices
        if neighbour is None:
            indexed.intern(new)
        else:
            indexed.add_edge(new, neighbour, weight)


@settings(max_examples=100, deadline=None)
@given(case=mutating_batches())
def test_answers_stay_exact_while_the_shared_graph_mutates(case):
    """Appends, weight overwrites and new vertices between batches: every
    batch still equals the per-query reference on the graph as it is now,
    because any mutation drops the parked searches."""
    graph, steps = case
    indexed = IndexedGraph.from_weighted_graph(graph)
    engine = QueryEngine(indexed)
    for mutation, sources, targets in steps:
        _mutate(indexed, mutation)
        got = engine.run_queries_ids(sources, targets)
        want, _ = reference_queries_ids(indexed, sources, targets)
        assert got == want


@settings(max_examples=80, deadline=None)
@given(case=graph_with_batches(max_batches=8), capacity=st.sampled_from((1, 2)))
def test_eviction_keeps_answers_exact(case, capacity):
    """One or two parked searches evict all the time; answers must not
    notice, and no batch settles more than a fresh engine would."""
    graph, batches = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(query_engine, "PARKED_SLOTS", capacity * graph.number_of_vertices)
        engine = QueryEngine(graph)
        for sources, targets in batches + batches[::-1]:
            before = engine.settled_count
            got = engine.run_queries(sources, targets)
            fresh = QueryEngine(engine.indexed)
            assert got == fresh.run_queries(sources, targets)
            assert engine.settled_count - before <= fresh.settled_count


def _path_engine(monkeypatch, capacity: int) -> QueryEngine:
    graph = WeightedGraph()
    for v in range(1, 40):
        graph.add_edge(v - 1, v, 1.0)
    monkeypatch.setattr(query_engine, "PARKED_SLOTS", capacity * 40)
    return QueryEngine(graph)


@pytest.mark.parametrize("capacity, resumed, evicted", [(1, 0, 2), (2, 1, 0)])
def test_fewest_requests_then_least_recent_search_is_evicted(
    monkeypatch, capacity, resumed, evicted
):
    """Sources 0, 39, 0: equal counts evict the least recently used, so a
    second parked search keeps source 0 alive and one does not."""
    engine = _path_engine(monkeypatch, capacity)
    for source in (0, 39, 0):
        assert engine.run_queries_ids([source], [20]) == [float(abs(source - 20))]
    assert engine.resumed_count == resumed
    assert engine.counters()["engine_resumed"] == resumed
    assert engine.counters()["engine_evicted"] == evicted


def _exact(engine: QueryEngine, sources: list[int], targets: list[int]) -> list[float]:
    """Run one batch and check it against the per-query reference."""
    got = engine.run_queries_ids(sources, targets)
    assert got == reference_queries_ids(engine.indexed, sources, targets)[0]
    return got


def test_frequent_source_survives_one_off_sources(monkeypatch):
    """A source asked in three batches outlives two one-off sources."""
    engine = _path_engine(monkeypatch, 2)
    for target in (10, 20, 5):
        _exact(engine, [0], [target])
    _exact(engine, [10], [39])
    _exact(engine, [30], [39])
    # Source 10 (one request, older than 30) went; least recently used
    # would have dropped source 0.
    assert engine.evicted_count == 1
    resumed = engine.resumed_count
    settled = engine.settled_count
    assert _exact(engine, [0, 0], [15, 3]) == [15.0, 3.0]
    assert engine.resumed_count == resumed + 1
    assert engine.settled_count == settled


def test_shifted_hot_source_is_kept_after_halving(monkeypatch):
    """One parked search: the old hot source holds it only until halving.

    The counts are halved whenever they sum to 40 (40 × the capacity), so
    500 requests for source 0 leave it a count of 20, not 500.  Source 39
    then needs 20 requests: the 20th brings the sum to 40, both counts halve
    to 10, the tie evicts the less recent source 0, and the 21st request
    resumes.  Without the halving it would take 500.
    """
    engine = _path_engine(monkeypatch, 1)
    for _ in range(500):
        _exact(engine, [0], [20])
    assert engine.evicted_count == 0
    kept_after = None
    for request in range(1, 41):
        resumed = engine.resumed_count
        _exact(engine, [39], [request % 39])
        if engine.resumed_count > resumed:
            kept_after = request - 1
            break
    assert kept_after == 20
    # 19 fresh searches for source 39 were not kept, then source 0 went.
    assert engine.evicted_count == 20


def test_rejected_batch_leaves_parked_searches_usable(monkeypatch):
    """A batch that fails validation runs no search and evicts nothing."""
    engine = _path_engine(monkeypatch, 2)
    assert engine.run_queries_ids([0, 39], [30, 10]) == [30.0, 29.0]
    settled = engine.settled_count
    for bad in (99, 2.5, "0"):
        with pytest.raises(VertexNotFoundError):
            engine.run_queries_ids([0, 39, 0], [5, 15, bad])
    assert engine.run_queries_ids([0, 39], [25, 12]) == [25.0, 27.0]
    assert engine.settled_count == settled
    assert engine.resumed_count == 2
    # The parked searches resume past their old frontier, exactly.
    assert engine.run_queries_ids([0], [35]) == [35.0]
    assert engine.settled_count == settled + 5


def test_same_source_batch_runs_one_search():
    """q queries from one source cost one search, answered at settle time."""
    graph = WeightedGraph()
    for v in range(1, 50):
        graph.add_edge(v - 1, v, 1.0)
    engine = QueryEngine(graph)
    sources = [0] * 20
    targets = list(range(20, 40))
    got = engine.run_queries(sources, targets)
    assert got == [float(t) for t in targets]
    assert engine.source_count == 1
    # Early stop: nothing past the furthest target (id 39) was settled.
    assert engine.settled_count <= 40


def test_trivial_and_unreachable_queries():
    graph = WeightedGraph(vertices=[0, 1, 2, 3])
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(2, 3, 1.0)
    engine = QueryEngine(graph)
    assert engine.run_queries([0, 0, 1], [0, 2, 3]) == [0.0, math.inf, math.inf]
    assert engine.distance(0, 1) == 1.0


def test_input_validation():
    graph = WeightedGraph(vertices=[0, 1])
    graph.add_edge(0, 1, 1.0)
    engine = QueryEngine(graph)
    with pytest.raises(ValueError, match="differ in length"):
        engine.run_queries([0], [0, 1])
    with pytest.raises(VertexNotFoundError):
        engine.run_queries([0], ["missing"])
    with pytest.raises(VertexNotFoundError):
        engine.run_queries_ids([0], [99])
    # A float target passes the range check but can never settle; a float
    # source is no id either; an unhashable vertex is not in the graph.
    with pytest.raises(VertexNotFoundError):
        engine.run_queries_ids([0], [2.5])
    with pytest.raises(VertexNotFoundError):
        engine.run_queries_ids([1.0], [2])
    with pytest.raises(VertexNotFoundError):
        engine.run_queries([[0]], [1])
    # Any integer type is an id.
    assert engine.run_queries_ids([np.int64(0)], [np.int32(1)]) == [1.0]


def test_engine_observes_growing_shared_graph():
    """Edges and vertices appended to a shared IndexedGraph are served."""
    indexed = IndexedGraph(vertices=[0, 1])
    indexed.append_edge_unchecked(0, 1, 1.0)
    engine = QueryEngine(indexed)
    assert engine.run_queries_ids([0], [1]) == [1.0]
    # A shortcut edge appended later must be observed (live adjacency)...
    indexed.append_edge_unchecked(0, 1, 0.5)
    assert engine.run_queries_ids([0], [1]) == [0.5]
    # ...and so must newly interned vertices.
    indexed.add_edge(1, 2, 1.0)
    assert engine.run_queries_ids([0], [2]) == [1.5]


def test_counters_shape():
    graph = WeightedGraph(vertices=[0, 1])
    graph.add_edge(0, 1, 1.0)
    engine = QueryEngine(graph)
    engine.run_queries([0], [1])
    counters = engine.counters()
    assert counters["engine_queries"] == 1.0
    assert counters["engine_batches"] == 1.0
    assert counters["engine_sources"] == 1.0
    assert counters["engine_settles"] >= 1.0
    assert counters["engine_resumed"] == 0.0
    assert counters["engine_evicted"] == 0.0
    assert set(counters) == {
        "engine_queries", "engine_batches", "engine_sources",
        "engine_resumed", "engine_evicted", "engine_settles",
    }


# ---------------------------------------------------------------------------
# Exposure: routing scheme
# ---------------------------------------------------------------------------
def _ladder(n: int = 30) -> WeightedGraph:
    graph = WeightedGraph()
    for v in range(1, n):
        graph.add_edge(v - 1, v, 1.0)
        if v >= 2:
            graph.add_edge(v - 2, v, 1.5)
    return graph


def test_routing_scheme_run_queries():
    overlay = _ladder()
    scheme = RoutingScheme(overlay, destinations=[0])
    sources = [0, 3, 10, 29, 4]
    targets = [29, 3, 0, 1, 27]
    got = scheme.run_queries(sources, targets)
    want, _ = reference_queries(scheme.query_engine.indexed, sources, targets)
    assert got == want
    # Routed weight equals the batched overlay distance on routed pairs.
    full_scheme = RoutingScheme(overlay)
    for source, target, distance in zip(sources, targets, got):
        assert full_scheme.route(source, target).weight == pytest.approx(distance)
