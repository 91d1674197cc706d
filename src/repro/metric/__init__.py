"""Finite metric-space substrate: metrics, doubling dimension, nets and workloads."""

from repro.metric.base import ExplicitMetric, FiniteMetric, ScaledMetric
from repro.metric.closure import MetricClosure
from repro.metric.euclidean import EuclideanMetric
from repro.metric.graph_metric import GraphMetric, induced_metric
from repro.metric.stream import iter_pairs, sorted_pair_stream
from repro.metric.doubling import (
    doubling_constant_upper_bound,
    doubling_dimension_upper_bound,
    packing_number,
    verify_packing_lemma,
)
from repro.metric.nets import NetHierarchy, greedy_net, is_r_net
from repro.metric.generators import (
    circle_points,
    clustered_points,
    concentric_shells_metric,
    grid_points,
    line_points,
    perturbed_metric,
    random_graph_metric,
    spiral_points,
    star_metric,
    uniform_points,
)

__all__ = [
    "ExplicitMetric",
    "FiniteMetric",
    "ScaledMetric",
    "EuclideanMetric",
    "GraphMetric",
    "MetricClosure",
    "induced_metric",
    "iter_pairs",
    "sorted_pair_stream",
    "doubling_constant_upper_bound",
    "doubling_dimension_upper_bound",
    "packing_number",
    "verify_packing_lemma",
    "NetHierarchy",
    "greedy_net",
    "is_r_net",
    "circle_points",
    "clustered_points",
    "concentric_shells_metric",
    "grid_points",
    "line_points",
    "perturbed_metric",
    "random_graph_metric",
    "spiral_points",
    "star_metric",
    "uniform_points",
]
