"""Point-set and metric-space workload generators.

These are the doubling-metric workloads of the experiments:

* uniform and clustered Euclidean point sets (the standard Farshi–Gudmundsson
  experimental distributions),
* structured sets (grid, circle, line, spiral),
* :func:`concentric_shells_metric` — a doubling-dimension-1 style family on
  which the *greedy* spanner has large maximum degree while bounded-degree
  constructions stay constant (the [HM06]/[Smi09] phenomenon quoted in
  Sections 1.2 and 5 of the paper), used by experiment E8,
* random explicit (non-Euclidean) metrics obtained by metric completion of a
  random weighted graph, exercising the "arbitrary doubling metric" code
  paths.

All generators take an explicit seed so every experiment is reproducible.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.graph.generators import random_connected_graph
from repro.metric.base import ExplicitMetric, FiniteMetric
from repro.metric.euclidean import EuclideanMetric
from repro.metric.graph_metric import GraphMetric


def _generator(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_points(
    n: int, dimension: int = 2, *, seed: Optional[int] = None, side: float = 1.0
) -> EuclideanMetric:
    """Return ``n`` points drawn uniformly from the cube ``[0, side]^dimension``."""
    rng = _generator(seed)
    coordinates = rng.uniform(0.0, side, size=(n, dimension))
    return EuclideanMetric(_deduplicate(coordinates, rng, side))


def clustered_points(
    n: int,
    dimension: int = 2,
    *,
    clusters: int = 5,
    cluster_radius: float = 0.02,
    seed: Optional[int] = None,
    side: float = 1.0,
) -> EuclideanMetric:
    """Return ``n`` points in Gaussian clusters around random centres.

    Clustered distributions are where light spanners shine: the MST is short
    relative to the diameter, so lightness differences between constructions
    are pronounced.
    """
    rng = _generator(seed)
    centres = rng.uniform(0.0, side, size=(clusters, dimension))
    assignments = rng.integers(0, clusters, size=n)
    offsets = rng.normal(0.0, cluster_radius, size=(n, dimension))
    coordinates = centres[assignments] + offsets
    return EuclideanMetric(_deduplicate(coordinates, rng, side))


def grid_points(side_count: int, dimension: int = 2, *, spacing: float = 1.0) -> EuclideanMetric:
    """Return the regular grid with ``side_count`` points per axis."""
    axes = [np.arange(side_count, dtype=float) * spacing for _ in range(dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coordinates = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return EuclideanMetric(coordinates)


def circle_points(n: int, *, radius: float = 1.0, jitter: float = 0.0, seed: Optional[int] = None) -> EuclideanMetric:
    """Return ``n`` points evenly spaced on a circle (optionally jittered)."""
    rng = _generator(seed)
    angles = np.linspace(0.0, 2.0 * math.pi, num=n, endpoint=False)
    coordinates = np.stack(
        [radius * np.cos(angles), radius * np.sin(angles)], axis=1
    )
    if jitter > 0.0:
        coordinates = coordinates + rng.normal(0.0, jitter, size=coordinates.shape)
    return EuclideanMetric(_deduplicate(coordinates, rng, radius))


def line_points(n: int, *, spacing: float = 1.0, exponential: bool = False) -> EuclideanMetric:
    """Return ``n`` collinear points, equally spaced or exponentially spread.

    A line is the canonical doubling-dimension-1 metric.  With
    ``exponential=True`` the gaps grow geometrically, producing a large aspect
    ratio — a stress test for net hierarchies and cluster graphs.
    """
    if exponential:
        xs = np.cumsum(np.concatenate([[0.0], spacing * (2.0 ** np.arange(n - 1))]))
    else:
        xs = np.arange(n, dtype=float) * spacing
    return EuclideanMetric(xs.reshape(-1, 1))


def spiral_points(n: int, *, turns: float = 3.0, seed: Optional[int] = None) -> EuclideanMetric:
    """Return ``n`` points along an Archimedean spiral.

    Spirals are a classic adversarial workload for geometric spanners: nearby
    points along the arc are close in the plane but far along the curve.
    """
    rng = _generator(seed)
    t = np.linspace(0.05, 1.0, num=n)
    angles = 2.0 * math.pi * turns * t
    radii = t
    coordinates = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return EuclideanMetric(_deduplicate(coordinates, rng, 1.0))


def concentric_shells_metric(
    shells: int, points_per_shell: int, *, base_radius: float = 1.0, growth: float = 2.0
) -> EuclideanMetric:
    """Return points on concentric circles with geometrically growing radii.

    This mimics the structure of the known bad examples for the greedy
    spanner's *degree* in doubling metrics ([HM06, Smi09], quoted in the
    paper): a central cluster sees many far-away shells whose points all want
    a direct greedy edge towards the centre region, inflating the maximum
    degree, while the doubling dimension stays bounded.
    """
    coordinates: list[list[float]] = [[0.0, 0.0]]
    for shell in range(shells):
        radius = base_radius * (growth ** shell)
        for index in range(points_per_shell):
            angle = 2.0 * math.pi * index / points_per_shell
            coordinates.append([radius * math.cos(angle), radius * math.sin(angle)])
    return EuclideanMetric(np.asarray(coordinates))


def star_metric(n: int, *, centre_distance: float = 1.0) -> ExplicitMetric:
    """Return the "uniform star" metric: one hub at distance 1 from ``n - 1`` leaves.

    All leaf–leaf distances equal ``2 · centre_distance`` (the triangle
    inequality's boundary), so every leaf pair already has an exact shortest
    path through the hub.  The greedy ``(1+ε)``-spanner of this metric is the
    star itself, giving the hub degree ``n - 1`` — the degree-blowup
    phenomenon ([HM06, Smi09]) quoted in Sections 1.2 and 5 of the paper as
    the reason the greedy spanner cannot have bounded degree in general
    metrics.  (The paper's citation achieves the blowup even with doubling
    dimension 1; this simpler family has doubling dimension ``Θ(log n)`` —
    the substitution does not affect what the experiment demonstrates,
    namely that greedy degree can grow linearly while bounded-degree
    constructions exist.)

    Point 0 is the hub; points ``1 .. n-1`` are the leaves.
    """
    if n < 2:
        raise ValueError("the star metric needs at least 2 points")
    if centre_distance <= 0:
        raise ValueError("centre_distance must be positive")
    points = list(range(n))
    distances: dict[tuple[int, int], float] = {}
    for i in range(1, n):
        distances[(0, i)] = centre_distance
        for j in range(i + 1, n):
            distances[(i, j)] = 2.0 * centre_distance
    return ExplicitMetric(points, distances)


def random_graph_metric(
    n: int, *, extra_edge_probability: float = 0.2, seed: Optional[int] = None
) -> GraphMetric:
    """Return the shortest-path metric of a random connected weighted graph.

    This exercises the non-Euclidean metric code paths (metrics that are not
    embeddable in low dimension) used by the general-graph side of the paper.
    """
    graph = random_connected_graph(n, extra_edge_probability, seed=seed)
    return GraphMetric(graph)


def perturbed_metric(
    base: FiniteMetric, *, relative_noise: float = 0.05, seed: Optional[int] = None
) -> ExplicitMetric:
    """Return an explicit metric close to ``base`` with distinct, perturbed distances.

    Every distance is multiplied by an independent factor in
    ``[1, 1 + relative_noise]`` and the result is then closed under shortest
    paths (a metric completion over the complete graph), which restores the
    triangle inequality exactly.  Used to break weight ties and to test the
    robustness of the greedy algorithm to near-equal weights.
    """
    if not 0.0 <= relative_noise <= 0.5:
        raise ValueError("relative_noise must lie in [0, 0.5]")
    rng = _generator(seed)
    points = list(base.points())
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    matrix = np.zeros((n, n), dtype=float)
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            factor = 1.0 + rng.uniform(0.0, relative_noise)
            value = base.distance(p, q) * factor
            matrix[i, index[q]] = value
            matrix[index[q], i] = value
    # Metric completion: Floyd–Warshall over the perturbed complete graph.
    for k in range(n):
        matrix = np.minimum(matrix, matrix[:, k:k + 1] + matrix[k:k + 1, :])
    distances = {}
    for i, p in enumerate(points):
        for j in range(i + 1, n):
            distances[(p, points[j])] = float(matrix[i, j])
    return ExplicitMetric(points, distances)


def _deduplicate(
    coordinates: np.ndarray, rng: np.random.Generator, scale: float
) -> np.ndarray:
    """Nudge duplicate rows apart so the point set is a valid metric."""
    seen: set[tuple[float, ...]] = set()
    result = coordinates.copy()
    for index in range(result.shape[0]):
        key = tuple(result[index].tolist())
        while key in seen:
            result[index] = result[index] + rng.uniform(-1e-9, 1e-9, size=result.shape[1]) * scale
            key = tuple(result[index].tolist())
        seen.add(key)
    return result
