"""Shared fixtures for the test suite.

The fixtures are deliberately small (tens of vertices/points) so the whole
suite runs in well under a minute; the larger workloads live in
``benchmarks/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The seed engines the equivalence tests compare against live in
# tests/oracles/ and are imported as ``oracles.<layer>``.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.graph.generators import (
    grid_graph,
    petersen_graph,
    random_connected_graph,
    random_geometric_graph,
)
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.generators import clustered_points, uniform_points
from repro.metric.euclidean import EuclideanMetric


@pytest.fixture
def triangle_graph() -> WeightedGraph:
    """A 3-cycle with distinct weights 1, 2, 4 (the heavy edge is shortcut-able)."""
    graph = WeightedGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("a", "c", 4.0)
    return graph


@pytest.fixture
def small_random_graph() -> WeightedGraph:
    """A connected random graph on 30 vertices with random weights (seeded)."""
    return random_connected_graph(30, 0.2, seed=101)


@pytest.fixture
def medium_random_graph() -> WeightedGraph:
    """A connected random graph on 60 vertices with random weights (seeded)."""
    return random_connected_graph(60, 0.12, seed=102)


@pytest.fixture
def unit_grid() -> WeightedGraph:
    """A 5x5 unit-weight grid graph."""
    return grid_graph(5, 5)


@pytest.fixture
def petersen() -> WeightedGraph:
    """The Petersen graph with unit weights."""
    return petersen_graph()


@pytest.fixture
def geometric_network() -> WeightedGraph:
    """A connected random geometric graph on 40 points."""
    return random_geometric_graph(40, 0.25, seed=103)


@pytest.fixture
def small_points() -> EuclideanMetric:
    """25 uniform points in the unit square."""
    return uniform_points(25, 2, seed=104)


@pytest.fixture
def medium_points() -> EuclideanMetric:
    """60 uniform points in the unit square."""
    return uniform_points(60, 2, seed=105)


@pytest.fixture
def clustered_metric() -> EuclideanMetric:
    """40 points in 4 tight clusters."""
    return clustered_points(40, 2, clusters=4, seed=106)
