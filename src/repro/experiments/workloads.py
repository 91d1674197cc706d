"""Named workload registry used by examples, tests and benchmarks.

A *workload* is a reproducible instance (a graph or a metric space) with a
descriptive name, a seed and the parameters used to generate it.  Keeping the
registry in one place guarantees that the experiment tables, the examples
and ``pytest benchmarks/`` all run on identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from repro.errors import UnknownWorkloadError
from repro.graph.generators import (
    grid_graph,
    gnm_random_graph,
    random_connected_graph,
    random_geometric_graph,
)
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.generators import (
    circle_points,
    clustered_points,
    concentric_shells_metric,
    grid_points,
    spiral_points,
    uniform_points,
)

Workload = Union[WeightedGraph, FiniteMetric]
WorkloadFactory = Callable[[], Workload]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, reproducible workload.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"uniform-2d-200"``.
    kind:
        ``"graph"`` or ``"metric"``.
    description:
        One-line human description used in reports.
    factory:
        Zero-argument callable producing the instance.
    parameters:
        The generation parameters, recorded for the report.
    """

    name: str
    kind: str
    description: str
    factory: WorkloadFactory
    parameters: dict[str, float] = field(default_factory=dict)

    def build(self) -> Workload:
        """Instantiate the workload."""
        return self.factory()


_REGISTRY: dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a workload to the registry (overwriting any previous entry with the name)."""
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise UnknownWorkloadError(name) from exc


def list_workloads(kind: str | None = None) -> list[WorkloadSpec]:
    """Return all registered workloads, optionally filtered by kind."""
    specs = sorted(_REGISTRY.values(), key=lambda s: s.name)
    if kind is None:
        return specs
    return [s for s in specs if s.kind == kind]


def _register_default_workloads() -> None:
    """Populate the registry with the workloads the experiments reference."""
    register(WorkloadSpec(
        name="random-graph-small",
        kind="graph",
        description="Random connected graph, n=60, extra edge prob 0.15, weights U[1,10]",
        factory=lambda: random_connected_graph(60, 0.15, seed=11),
        parameters={"n": 60, "p": 0.15, "seed": 11},
    ))
    register(WorkloadSpec(
        name="random-graph-medium",
        kind="graph",
        description="Random connected graph, n=150, extra edge prob 0.08, weights U[1,10]",
        factory=lambda: random_connected_graph(150, 0.08, seed=12),
        parameters={"n": 150, "p": 0.08, "seed": 12},
    ))
    register(WorkloadSpec(
        name="dense-gnm",
        kind="graph",
        description="Random G(n,m) graph, n=100, m=1500 (dense), weights U[1,10]",
        factory=lambda: _connected_gnm(100, 1500, seed=13),
        parameters={"n": 100, "m": 1500, "seed": 13},
    ))
    register(WorkloadSpec(
        name="grid-graph",
        kind="graph",
        description="12x12 unit-weight grid",
        factory=lambda: grid_graph(12, 12),
        parameters={"rows": 12, "cols": 12},
    ))
    register(WorkloadSpec(
        name="geometric-network",
        kind="graph",
        description="Random geometric graph, n=120, radius 0.18 (wireless-network style)",
        factory=lambda: random_geometric_graph(120, 0.18, seed=14),
        parameters={"n": 120, "radius": 0.18, "seed": 14},
    ))
    register(WorkloadSpec(
        name="uniform-2d-small",
        kind="metric",
        description="80 uniform points in the unit square",
        factory=lambda: uniform_points(80, 2, seed=21),
        parameters={"n": 80, "d": 2, "seed": 21},
    ))
    register(WorkloadSpec(
        name="uniform-2d-medium",
        kind="metric",
        description="200 uniform points in the unit square",
        factory=lambda: uniform_points(200, 2, seed=22),
        parameters={"n": 200, "d": 2, "seed": 22},
    ))
    register(WorkloadSpec(
        name="uniform-3d",
        kind="metric",
        description="120 uniform points in the unit cube",
        factory=lambda: uniform_points(120, 3, seed=23),
        parameters={"n": 120, "d": 3, "seed": 23},
    ))
    register(WorkloadSpec(
        name="clustered-2d",
        kind="metric",
        description="150 points in 6 tight Gaussian clusters",
        factory=lambda: clustered_points(150, 2, clusters=6, seed=24),
        parameters={"n": 150, "d": 2, "clusters": 6, "seed": 24},
    ))
    register(WorkloadSpec(
        name="circle",
        kind="metric",
        description="100 points on a circle (doubling dimension 1)",
        factory=lambda: circle_points(100, seed=25),
        parameters={"n": 100, "seed": 25},
    ))
    register(WorkloadSpec(
        name="grid-2d-metric",
        kind="metric",
        description="10x10 grid of points",
        factory=lambda: grid_points(10, 2),
        parameters={"side": 10, "d": 2},
    ))
    register(WorkloadSpec(
        name="spiral",
        kind="metric",
        description="120 points on an Archimedean spiral",
        factory=lambda: spiral_points(120, seed=26),
        parameters={"n": 120, "seed": 26},
    ))
    register(WorkloadSpec(
        name="concentric-shells",
        kind="metric",
        description="Concentric shells (greedy-degree adversary), 8 shells of 12 points",
        factory=lambda: concentric_shells_metric(8, 12),
        parameters={"shells": 8, "points_per_shell": 12},
    ))
    # Large-n scenarios for the Approximate-Greedy scale rows of
    # `repro bench oracles` — beyond the exact greedy's reach (use the
    # approx-greedy strategies or expect hours).
    register(WorkloadSpec(
        name="uniform-2d-xl",
        kind="metric",
        description="20000 uniform points in the unit square (approx-greedy scale)",
        factory=lambda: uniform_points(20000, 2, seed=43),
        parameters={"n": 20000, "d": 2, "seed": 43},
    ))
    register(WorkloadSpec(
        name="clustered-2d-large",
        kind="metric",
        description="10000 points in 50 tight Gaussian clusters (approx-greedy scale)",
        factory=lambda: clustered_points(10000, 2, clusters=50, seed=41),
        parameters={"n": 10000, "d": 2, "clusters": 50, "seed": 41},
    ))
    register(WorkloadSpec(
        name="grid-2d-large",
        kind="metric",
        description="100x100 grid of points (approx-greedy scale, maximal ties)",
        factory=lambda: grid_points(100, 2),
        parameters={"side": 100, "d": 2},
    ))
    register(WorkloadSpec(
        name="uniform-8d",
        kind="metric",
        description="500 uniform points in the 8-cube (high-dim net-tree substrate)",
        factory=lambda: uniform_points(500, 8, seed=42),
        parameters={"n": 500, "d": 8, "seed": 42},
    ))


def _connected_gnm(n: int, m: int, *, seed: int) -> WeightedGraph:
    """Return a G(n, m) graph, resampling the seed until it is connected."""
    from repro.graph.traversal import is_connected

    attempt = 0
    while True:
        graph = gnm_random_graph(n, m, seed=seed + attempt)
        if is_connected(graph):
            return graph
        attempt += 1


_register_default_workloads()
