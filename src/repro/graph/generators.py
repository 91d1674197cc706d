"""Graph generators used as workloads throughout the reproduction.

The generators fall into three groups:

* **Classic deterministic families** — paths, cycles, stars, complete graphs,
  grids, hypercubes and the Petersen graph.  These have known girth, diameter
  and MST structure, which the tests exploit.
* **Random families** — Erdős–Rényi graphs (``G(n, p)`` and ``G(n, m)``),
  random trees, random geometric graphs and random connected graphs with
  random weights.  These are the "general weighted graphs" workloads of the
  experiments for Corollary 4.
* **Paper-specific constructions** —
  :func:`high_girth_incidence_graph` (a dense girth-6 bipartite incidence
  graph, the classic source of spanner lower bounds) and
  :func:`figure1_instance`, the Petersen-plus-star graph of Figure 1 that
  separates universal from existential optimality.

All randomness flows through an explicit :class:`random.Random` instance so
every workload is reproducible from its seed.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.weighted_graph import WeightedGraph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Classic deterministic families
# ---------------------------------------------------------------------------
def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Return the path on vertices ``0 .. n-1`` with uniform edge weight."""
    graph = WeightedGraph(vertices=range(n))
    for i in range(n - 1):
        graph.add_edge(i, i + 1, weight)
    return graph


def cycle_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Return the cycle on vertices ``0 .. n-1`` with uniform edge weight."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    graph = path_graph(n, weight)
    graph.add_edge(n - 1, 0, weight)
    return graph


def star_graph(n: int, weight: float = 1.0, centre: int = 0) -> WeightedGraph:
    """Return the star with ``n`` vertices (one centre, ``n - 1`` leaves)."""
    graph = WeightedGraph(vertices=range(n))
    for leaf in range(n):
        if leaf != centre:
            graph.add_edge(centre, leaf, weight)
    return graph


def complete_graph(
    n: int,
    *,
    weight: float = 1.0,
    seed: Optional[int] = None,
    random_weights: bool = False,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
) -> WeightedGraph:
    """Return the complete graph ``K_n``.

    With ``random_weights=True`` edge weights are drawn uniformly from
    ``[min_weight, max_weight]``; otherwise every edge has weight ``weight``.
    """
    rng = _rng(seed)
    graph = WeightedGraph(vertices=range(n))
    for u, v in itertools.combinations(range(n), 2):
        w = rng.uniform(min_weight, max_weight) if random_weights else weight
        graph.add_edge(u, v, w)
    return graph


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> WeightedGraph:
    """Return the ``rows × cols`` grid graph with uniform edge weight.

    Vertices are ``(row, col)`` tuples.
    """
    graph = WeightedGraph(
        vertices=((r, c) for r in range(rows) for c in range(cols))
    )
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c), weight)
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1), weight)
    return graph


def hypercube_graph(dimension: int, weight: float = 1.0) -> WeightedGraph:
    """Return the ``dimension``-dimensional hypercube on ``2**dimension`` vertices."""
    n = 1 << dimension
    graph = WeightedGraph(vertices=range(n))
    for vertex in range(n):
        for bit in range(dimension):
            neighbour = vertex ^ (1 << bit)
            if vertex < neighbour:
                graph.add_edge(vertex, neighbour, weight)
    return graph


def petersen_graph(weight: float = 1.0) -> WeightedGraph:
    """Return the Petersen graph (10 vertices, 15 edges, girth 5).

    This is the graph ``H`` of Figure 1 in the paper.  Vertices ``0..4`` form
    the outer 5-cycle, vertices ``5..9`` the inner pentagram, and vertex ``i``
    is joined to vertex ``i + 5`` by a spoke.
    """
    graph = WeightedGraph(vertices=range(10))
    for i in range(5):
        graph.add_edge(i, (i + 1) % 5, weight)          # outer cycle
        graph.add_edge(5 + i, 5 + (i + 2) % 5, weight)  # inner pentagram
        graph.add_edge(i, 5 + i, weight)                # spokes
    return graph


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------
def random_tree(
    n: int,
    *,
    seed: Optional[int] = None,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
) -> WeightedGraph:
    """Return a uniformly random labelled tree on ``n`` vertices (via Prüfer-like attachment)."""
    rng = _rng(seed)
    graph = WeightedGraph(vertices=range(n))
    for vertex in range(1, n):
        parent = rng.randrange(vertex)
        graph.add_edge(parent, vertex, rng.uniform(min_weight, max_weight))
    return graph


def gnp_random_graph(
    n: int,
    p: float,
    *,
    seed: Optional[int] = None,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
) -> WeightedGraph:
    """Return an Erdős–Rényi ``G(n, p)`` graph with uniform random weights.

    The graph may be disconnected; use :func:`random_connected_graph` for
    workloads that require connectivity.
    """
    rng = _rng(seed)
    graph = WeightedGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v, rng.uniform(min_weight, max_weight))
    return graph


def gnm_random_graph(
    n: int,
    m: int,
    *,
    seed: Optional[int] = None,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
) -> WeightedGraph:
    """Return a graph with ``n`` vertices and exactly ``m`` random edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise GraphError(f"cannot place {m} edges in a simple graph on {n} vertices")
    rng = _rng(seed)
    graph = WeightedGraph(vertices=range(n))
    placed = 0
    while placed < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v, rng.uniform(min_weight, max_weight))
        placed += 1
    return graph


def random_connected_graph(
    n: int,
    extra_edge_probability: float = 0.1,
    *,
    seed: Optional[int] = None,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
) -> WeightedGraph:
    """Return a connected random graph: a random tree plus extra random edges.

    Each non-tree pair is added independently with probability
    ``extra_edge_probability``.  This is the default "general weighted graph"
    workload for the Corollary 4 experiments.
    """
    rng = _rng(seed)
    graph = random_tree(
        n, seed=rng.randrange(1 << 30), min_weight=min_weight, max_weight=max_weight
    )
    for u in range(n):
        for v in range(u + 1, n):
            if graph.has_edge(u, v):
                continue
            if rng.random() < extra_edge_probability:
                graph.add_edge(u, v, rng.uniform(min_weight, max_weight))
    return graph


def random_geometric_graph(
    n: int,
    radius: float,
    *,
    seed: Optional[int] = None,
    dimension: int = 2,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Return a random geometric graph on ``n`` points in the unit cube.

    Points are drawn uniformly at random; two points are joined if their
    Euclidean distance is at most ``radius`` and the edge weight equals that
    distance.  With ``ensure_connected=True`` a Euclidean MST over the points
    is added so that the result is always connected (standard practice for
    wireless-network workloads, the paper's Section 1.1 motivation).
    """
    rng = _rng(seed)
    points = [tuple(rng.random() for _ in range(dimension)) for _ in range(n)]
    graph = WeightedGraph(vertices=range(n))

    def distance(i: int, j: int) -> float:
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(points[i], points[j])))

    for u in range(n):
        for v in range(u + 1, n):
            d = distance(u, v)
            if d <= radius and d > 0.0:
                graph.add_edge(u, v, d)

    if ensure_connected:
        # Add Euclidean-MST edges (Prim over the point set) to guarantee
        # connectivity without distorting distances.
        in_tree = {0}
        best: dict[int, tuple[float, int]] = {
            v: (distance(0, v), 0) for v in range(1, n)
        }
        while len(in_tree) < n:
            v = min(best, key=lambda x: best[x][0])
            d, u = best.pop(v)
            in_tree.add(v)
            if not graph.has_edge(u, v) and d > 0.0:
                graph.add_edge(u, v, d)
            for w in best:
                d_new = distance(v, w)
                if d_new < best[w][0]:
                    best[w] = (d_new, v)
    return graph


def bucketed_geometric_graph(
    n: int,
    radius: float,
    *,
    seed: Optional[int] = None,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Return a random geometric graph in the unit square in O(n · degree) time.

    Same distribution as :func:`random_geometric_graph` with ``dimension=2``
    — ``n`` uniform points, an edge of weight ``d(u, v)`` whenever
    ``0 < d(u, v) ≤ radius`` — but pairs are found by the fixed-radius
    near-neighbour cell grid (Bentley, Stanat and Williams, 1977): cells of
    side ``radius``, each point compared only against its 3×3 cell
    neighbourhood, so the expected cost is ``Θ(n + m)`` instead of the
    all-pairs ``Θ(n²)`` scan.  This is the generator of the build, query and
    service workloads.

    Everything after drawing the points runs on numpy arrays: a dense cell
    table (``bincount`` / ``cumsum``), one batch of candidate pairs per
    neighbour offset, squared distances through ``numpy.float_power`` (the
    libm ``pow`` of Python's ``x ** 2``, so every weight is the float the
    per-pair loop computed) and one argsort that restores the per-pair
    loop's edge order: ``u`` ascending, then the offset ``(dx, dy)`` in
    row-major order, then ``v`` ascending.  The graph is built in one
    :meth:`WeightedGraph.from_edge_arrays` call.  The per-pair loop is kept
    as the test reference.

    With ``ensure_connected=True`` connectivity is restored in ``O(n + m)``
    as well: connected components are chained by an edge between consecutive
    component minima, weighted by their Euclidean distance (a cheaper
    guarantee than the Euclidean MST of the quadratic generator, and
    irrelevant at benchmark densities where the radius graph is already
    connected or nearly so).  Raises :class:`GraphError` unless ``n ≥ 0``
    and ``radius > 2⁻⁶²`` (points are multiples of ``2⁻⁵³``, so no smaller
    radius joins two of them, and a cell index must fit in int64).
    """
    if n < 0:
        raise GraphError(f"n must be non-negative, got {n}")
    if not radius > 0.0:
        raise GraphError(f"radius must be positive, got {radius}")
    if not 1.0 / radius < 2.0**62:
        raise GraphError(f"radius {radius} is too small to grid")
    # x0, y0, x1, y1, ...: the 2n draws of the per-pair loop, in its order.
    coords = np.fromiter(iter(_rng(seed).random, None), float, 2 * n)
    xs, ys = coords[0::2], coords[1::2]
    u, v, weights = _grid_pairs(xs, ys, radius)

    if ensure_connected and n > 1:
        label = _component_minima(n, u, v)
        minima = np.flatnonzero(label == np.arange(n))
        a, b = minima[:-1], minima[1:]
        d = np.sqrt(np.float_power(xs[a] - xs[b], 2.0) + np.float_power(ys[a] - ys[b], 2.0))
        u, v = np.concatenate((u, a)), np.concatenate((v, b))
        weights = np.concatenate((weights, np.where(d > 0.0, d, float(radius))))
    return WeightedGraph.from_edge_arrays(n, u, v, weights)


def _grid_pairs(
    xs: np.ndarray, ys: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(u, v, d)`` for every pair ``u < v`` of points in 3×3-neighbouring
    cells of side ``radius`` with ``0 < d ≤ radius``, in the per-pair loop's
    order: ``u``, then the offset ``(dx, dy)`` row-major, then ``v``.
    """
    n, inv = xs.size, 1.0 / radius
    # int(x * inv) for x in [0, 1) lies in [0, int(inv)].  A coarse cell
    # merges 2**shift cells a side so that the dense table stays O(n); a
    # border of empty cells gives every cell all eight neighbours.
    cx, cy = (xs * inv).astype(np.int64), (ys * inv).astype(np.int64)
    shift = (int(inv) // (math.isqrt(4 * n) + 4)).bit_length()
    side = (int(inv) >> shift) + 3
    cell_of = ((cx >> shift) + 1) * side + (cy >> shift) + 1
    count = np.bincount(cell_of, minlength=side * side)
    first = np.cumsum(count) - count
    members = np.argsort(cell_of, kind="stable")
    ids = np.arange(n)

    r_sq = radius * radius
    found = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            cell = cell_of + (dx * side + dy)
            sizes = count[cell]
            u = np.repeat(ids, sizes)
            v = members[np.arange(u.size) + np.repeat(first[cell] - np.cumsum(sizes) + sizes, sizes)]
            later = v > u
            u, v = u[later], v[later]
            d_sq = np.float_power(xs[u] - xs[v], 2.0) + np.float_power(ys[u] - ys[v], 2.0)
            near = (d_sq <= r_sq) & (d_sq > 0.0)
            u, v, d_sq = u[near], v[near], d_sq[near]
            # v's cell lies at offset (sx, sy) from u's: (dx, dy) at shift 0.
            # Pairs of cells farther apart were never compared.
            sx, sy = cx[v] - cx[u], cy[v] - cy[u]
            near = (sx * sx <= 1) & (sy * sy <= 1)
            key = ((u * 3 + sx) * 3 + sy + 4) * n + v
            found.append((key[near], u[near], v[near], d_sq[near]))
    # The keys (u · 9 + offset) · n + v are distinct: sorted, they are the
    # per-pair loop's order (a stable sort, as in from_edge_arrays).
    key, u, v, d_sq = (np.concatenate(column) for column in zip(*found))
    order = np.argsort(key, kind="stable")
    return u[order], v[order], np.sqrt(d_sq[order])


def _component_minima(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label every vertex of the graph ``(range(n), zip(u, v))`` with the
    smallest vertex of its component.

    Each round hooks every root onto the smallest root it shares an edge
    with, then pointer-jumps every label to its root, until no edge joins
    two roots (3–6 rounds on the benchmark instances).  Labels only
    decrease, so a component's root is its minimum.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        hooked = label.copy()
        np.minimum.at(hooked, np.maximum(lu, lv), np.minimum(lu, lv))
        for _ in range(n.bit_length()):  # a jump halves every path to a root
            hooked = hooked[hooked]
        if hooked.tobytes() == label.tobytes():
            return label
        label = hooked


# ---------------------------------------------------------------------------
# Paper-specific constructions
# ---------------------------------------------------------------------------
def high_girth_incidence_graph(q: int, weight: float = 1.0) -> WeightedGraph:
    """Return the point–line incidence graph of the projective plane ``PG(2, q)``.

    For a prime ``q`` this is a bipartite graph with ``2(q² + q + 1)``
    vertices, ``(q + 1)(q² + q + 1)`` edges and girth 6 — the densest known
    girth-6 graphs and the classic lower-bound instances for 3- and 5-spanners
    (a girth-6 graph has no proper 4-spanner).  Vertices are labelled
    ``("p", point)`` and ``("l", line)`` with points and lines given in
    homogeneous coordinates over GF(q).

    ``q`` must be prime (prime-power fields are not implemented).
    """
    if q < 2 or any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
        raise GraphError(f"q must be prime, got {q}")

    def normalise(vector: tuple[int, int, int]) -> tuple[int, int, int]:
        # Scale so that the first nonzero coordinate is 1 (canonical projective point).
        for index, coordinate in enumerate(vector):
            if coordinate % q != 0:
                inverse = pow(coordinate, q - 2, q)
                return tuple((c * inverse) % q for c in vector)  # type: ignore[return-value]
        raise GraphError("zero vector has no projective normalisation")

    points: set[tuple[int, int, int]] = set()
    for x in range(q):
        for y in range(q):
            for z in range(q):
                if (x, y, z) != (0, 0, 0):
                    points.add(normalise((x, y, z)))

    graph = WeightedGraph()
    for point in points:
        graph.add_vertex(("p", point))
        graph.add_vertex(("l", point))  # lines are in bijection with points (duality)
    for point in points:
        for line in points:
            incidence = sum(a * b for a, b in zip(point, line)) % q
            if incidence == 0:
                graph.add_edge(("p", point), ("l", line), weight)
    return graph


def figure1_instance(epsilon: float = 0.1) -> tuple[WeightedGraph, WeightedGraph, WeightedGraph]:
    """Return the Figure 1 construction ``(G, H, S)`` from the paper.

    * ``H`` is the Petersen graph (girth 5, 15 unit-weight edges).
    * ``S`` is a star on the same 10 vertices rooted at vertex 0.  Star edges
      that are also Petersen edges keep weight 1; the others get weight
      ``1 + epsilon``.
    * ``G`` is the union: all edges of ``H`` plus the star edges of weight
      ``1 + epsilon`` (the star edges of weight 1 are already in ``H``).

    The paper's point: the greedy 3-spanner of ``G`` contains all 15 edges of
    ``H``, whereas the optimal 3-spanner (for ``t ≥ 2 + 2ε``) is just the
    9-edge star ``S`` — so the greedy spanner is not *universally* optimal,
    yet remains *existentially* optimal.
    """
    if epsilon <= 0:
        raise GraphError("epsilon must be positive")
    petersen = petersen_graph()
    root = 0
    star = WeightedGraph(vertices=range(10))
    for leaf in range(1, 10):
        if petersen.has_edge(root, leaf):
            star.add_edge(root, leaf, 1.0)
        else:
            star.add_edge(root, leaf, 1.0 + epsilon)

    combined = petersen.copy()
    for u, v, weight in star.edges():
        if not combined.has_edge(u, v):
            combined.add_edge(u, v, weight)
    return combined, petersen, star


def uniform_weight_graph_from_edges(
    n: int, edges: list[tuple[int, int]], weight: float = 1.0
) -> WeightedGraph:
    """Return a graph on ``0 .. n-1`` with the given edge list and uniform weight."""
    graph = WeightedGraph(vertices=range(n))
    for u, v in edges:
        graph.add_edge(u, v, weight)
    return graph
