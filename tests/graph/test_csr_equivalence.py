"""Hypothesis property tests: every ``indexed_*`` kernel against the seed searches.

Each search kind on :class:`IndexedGraph` has one production kernel in
:mod:`repro.graph.shortest_paths`.  These tests check each one against an
independent reference: the dict-based :class:`WeightedGraph` seed search
(:func:`dijkstra`) run on the same edges, plus the kernels' documented
total settle order ``(dist, vertex id)``.  From the seed distances alone
that order fixes every settled map (contents **and** insertion order) and
therefore every settle count.  The generated graphs include
**tie-heavy** ones whose weights come from a tiny pool of
exactly-representable dyadic values, so equal-distance pop races actually
occur, and **string-vertex** ones, so the dense-id interning layer is
exercised too.

The ``adjacency`` parameter has the one value ``heap``: the kernels run on
the :class:`IndexedGraph` as built, searched by the C-``heapq`` loop.  The
cached oracle's weight-sorted ball kernel
(:class:`~repro.core.distance_oracle.CoverageIndex`) is checked against the
same seed settle order, and its resumed balls against the seed heap ball
(``oracles.graph.indexed_ball``); its ball sets are compared with the
packed-pair set they replaced (``oracles.coverage``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from oracles.coverage import PackedPairCoverage, packed_pairs
from oracles.graph import indexed_ball

from repro.core.distance_oracle import CoverageIndex
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import (
    dijkstra,
    indexed_bidirectional_cutoff,
    indexed_sssp,
)
from repro.graph.weighted_graph import WeightedGraph

#: Small pool of dyadic weights: maximal ties, exact float arithmetic.
TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def connected_indexed_graphs(draw, max_vertices: int = 16):
    """A small connected :class:`IndexedGraph`: tree backbone plus extras.

    ``tie_heavy`` draws every weight from :data:`TIE_HEAVY_WEIGHTS` so that
    equal path sums (the regime where heap tie-breaking matters) actually
    occur; ``string_vertices`` routes construction through the interning
    layer with non-integer labels.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    tie_heavy = draw(st.booleans())
    string_vertices = draw(st.booleans())
    if tie_heavy:
        weights = st.sampled_from(TIE_HEAVY_WEIGHTS)
    else:
        weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    label = (lambda i: f"v{i}") if string_vertices else (lambda i: i)
    graph = WeightedGraph(vertices=[label(i) for i in range(n)])
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        graph.add_edge(label(parent), label(v), draw(weights))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(label(u), label(v)):
            graph.add_edge(label(u), label(v), draw(weights))
    return IndexedGraph.from_weighted_graph(graph)


@st.composite
def search_cases(draw):
    """(graph, source_id, target_id, cutoff) with ids guaranteed in range."""
    graph = draw(connected_indexed_graphs())
    n = graph.number_of_vertices
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    cutoff = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    return graph, source, target, cutoff


def seed_graph(graph: IndexedGraph) -> WeightedGraph:
    """The same edges as a dense-id :class:`WeightedGraph`."""
    reference = WeightedGraph(vertices=range(graph.number_of_vertices))
    for uid, vid, weight in graph.edges():
        reference.add_edge(uid, vid, weight)
    return reference


def settle_order(
    reference: WeightedGraph, source: int, radius: float
) -> list[tuple[int, float]]:
    """Every vertex within ``radius`` of ``source`` in ``(dist, id)`` settle order."""
    distances, _ = dijkstra(reference, source)
    ball = [(vertex, dist) for vertex, dist in distances.items() if dist <= radius]
    return sorted(ball, key=lambda item: (item[1], item[0]))


@pytest.mark.parametrize("adjacency", ["heap"])
@settings(max_examples=80, deadline=None)
@given(case=search_cases())
def test_bidirectional_cutoff_identical(adjacency, case):
    """Meet-in-the-middle search: distance, and each settled map is a prefix
    of its side's seed settle order with exact distances."""
    graph, source, target, cutoff = case
    reference = seed_graph(graph)
    distance, settled_f, settled_b = indexed_bidirectional_cutoff(
        graph, source, target, cutoff
    )
    forward = settle_order(reference, source, cutoff)
    backward = settle_order(reference, target, cutoff)
    assert list(settled_f.items()) == forward[: len(settled_f)]
    assert list(settled_b.items()) == backward[: len(settled_b)]
    # The two half-paths are summed in a different association order than a
    # forward search, so the distance may differ by rounding near the cutoff.
    true_distance = dijkstra(reference, source)[0][target]
    if math.isinf(distance):
        assert true_distance > cutoff * (1.0 - 1e-9)
    else:
        assert distance <= cutoff
        assert math.isclose(distance, true_distance, rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=search_cases())
def test_coverage_ball_identical(case):
    """The weight-sorted, stamp-pruned ball of the cached oracle: identical
    settle order and distances, and the ball sets hold exactly the pairs
    the packed-pair reference harvests.  The second ball reuses the first
    one's stamped scratch."""
    graph, source, target, radius = case
    cover = CoverageIndex(graph.number_of_vertices)
    for uid, vid, weight in graph.edges():
        cover.add_edge(uid, vid, weight)
    reference = PackedPairCoverage()
    for centre in (source, target):
        settled = cover.ball(centre, radius)
        got = [(vertex, cover.dist[vertex]) for vertex in settled]
        assert got == settle_order(seed_graph(graph), centre, radius)
        # ``stamp[x] == gen`` is the membership test, both ways.
        assert [x for x, s in enumerate(cover.stamp) if s == cover.gen] == sorted(settled)
        reference.harvest(centre, settled)
    assert packed_pairs(cover.covered) == reference.pairs
    for uid in range(graph.number_of_vertices):
        for vid in range(graph.number_of_vertices):
            assert cover.covers(uid, vid) == reference.covers(uid, vid)


@st.composite
def resumable_ball_runs(draw):
    """A tie-heavy integer-weight graph and a run of ``CoverageIndex`` calls.

    Integer weights and integer radii make labels land exactly on a radius.
    The run starts with ``source`` at ``r0``, then ``r1``, a ball from
    another vertex, then ``source`` again at ``r2 ≥ r1``: the last one must
    resume the ``r1`` ball (a source's first ball is not parked).  Arbitrary balls (radii up or down) and edge
    insertions follow.
    """
    n = draw(st.integers(min_value=2, max_value=14))
    weights = st.sampled_from((1.0, 2.0, 3.0))
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        edges[(draw(st.integers(min_value=0, max_value=v - 1)), v)] = draw(weights)
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        if u != v:
            edges.setdefault((u, v), draw(weights))
    radii = st.integers(min_value=0, max_value=10).map(float)
    vertices = st.integers(min_value=0, max_value=n - 1)
    source = draw(vertices)
    other = (source + draw(st.integers(min_value=1, max_value=n - 1))) % n
    r1 = draw(radii)
    ops = [
        ("ball", source, draw(radii)),
        ("ball", source, r1),
        ("ball", other, draw(radii)),
        ("ball", source, r1 + draw(radii)),
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if draw(st.integers(0, 3)) == 0:
            u, v = draw(vertices), draw(vertices)
            if u != v:
                ops.append(("add", min(u, v), max(u, v), draw(weights)))
        else:
            ops.append(("ball", draw(vertices), draw(radii)))
    return n, edges, ops


@settings(max_examples=150, deadline=None)
@given(run=resumable_ball_runs())
def test_resumed_coverage_ball_equals_a_fresh_ball(run):
    """A resumed ball settles the same set, in the same order, with
    bit-identical labels, as a fresh ``indexed_ball`` at its radius, and
    harvests only the ids it settled itself."""
    n, edges, ops = run
    cover = CoverageIndex(n)
    reference = WeightedGraph(vertices=range(n))
    for (uid, vid), weight in edges.items():
        cover.add_edge(uid, vid, weight)
        reference.add_edge(uid, vid, weight)
    last_radius: dict[int, float] = {}  # source -> radius of its last ball
    packed = PackedPairCoverage()
    for step, op in enumerate(ops):
        if op[0] == "add":
            _, uid, vid, weight = op
            if not reference.has_edge(uid, vid):
                cover.add_edge(uid, vid, weight)
                reference.add_edge(uid, vid, weight)
                last_radius.clear()
            continue
        _, centre, radius = op
        before = packed_pairs(cover.covered)
        settled = cover.ball(centre, radius)
        fresh = indexed_ball(IndexedGraph.from_weighted_graph(reference), centre, radius)
        assert [(x, cover.dist[x]) for x in settled] == list(fresh.items())
        assert [x for x, s in enumerate(cover.stamp) if s == cover.gen] == sorted(settled)
        if step == 3:  # the scripted resume of the r1 ball
            assert cover.resumed == len(indexed_ball(
                IndexedGraph.from_weighted_graph(reference), centre, ops[1][2]
            ))
        if cover.resumed:
            assert last_radius[centre] <= radius
        new_pairs = PackedPairCoverage()
        new_pairs.harvest(centre, settled[cover.resumed:])
        assert packed_pairs(cover.covered) == before | new_pairs.pairs
        # The fresh ball harvests every id it settled: the same union.
        packed.harvest(centre, fresh)
        assert packed_pairs(cover.covered) == packed.pairs
        last_radius[centre] = radius


@pytest.mark.parametrize("adjacency", ["heap"])
@settings(max_examples=60, deadline=None)
@given(
    graph=connected_indexed_graphs(),
    source_seed=st.integers(min_value=0, max_value=10**6),
)
def test_sssp_identical(adjacency, graph, source_seed):
    """Full SSSP sweep: dist, parent and the stale-inclusive settle count.

    Vertices pop in ``(dist, id)`` order and each one relaxes its neighbours
    once, so vertex ``v``'s tentative distance improves exactly at each
    strict new minimum of ``dist[u] + w(u, v)`` over its neighbours ``u`` in
    pop order; its parent is the first neighbour reaching the final value.
    Every improvement pushes one heap entry, and every entry is popped.
    """
    source = source_seed % graph.number_of_vertices
    reference = seed_graph(graph)
    distances, _ = dijkstra(reference, source)
    n = graph.number_of_vertices
    pop_order = sorted(range(n), key=lambda v: (distances[v], v))
    pop_rank = {v: rank for rank, v in enumerate(pop_order)}
    expected_parent = [-1] * n
    expected_settles = 1
    for v in range(n):
        if v == source:
            continue
        best = math.inf
        for u in sorted(reference.neighbours(v), key=pop_rank.__getitem__):
            candidate = distances[u] + reference.weight(u, v)
            if candidate < best:
                best = candidate
                expected_parent[v] = u
                expected_settles += 1
    dist, parent, settles = indexed_sssp(graph, source)
    assert dist == [distances[v] for v in range(n)]
    assert parent == expected_parent
    assert settles == expected_settles
