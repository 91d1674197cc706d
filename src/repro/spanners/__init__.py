"""Baseline spanner constructions: the "any other spanner" side of the comparisons."""

from repro.spanners.baswana_sen import baswana_sen_spanner, expected_size_bound
from repro.spanners.registry import (
    SpannerBuilder,
    build_spanner,
    builder_names,
    get_builder,
    list_builders,
    register_builder,
)
from repro.spanners.bounded_degree import bounded_degree_spanner, theoretical_degree_bound
from repro.spanners.theta_graph import (
    cones_for_stretch,
    theta_graph_spanner,
    theta_graph_stretch,
)
from repro.spanners.trivial import (
    complete_metric_spanner,
    identity_spanner,
    metric_mst_spanner,
    mst_spanner,
)
from repro.spanners.verification import (
    EdgeVerification,
    ProfileStats,
    StretchProfile,
    VerificationEngine,
    stretch_profile,
    verify_spanner_edges,
    verify_spanner_edges_detailed,
)
from repro.spanners.wspd import build_split_tree, separation_for_stretch, wspd_pairs, wspd_spanner
from repro.spanners.yao_graph import yao_cones_for_stretch, yao_graph_spanner, yao_graph_stretch

__all__ = [
    "SpannerBuilder",
    "build_spanner",
    "builder_names",
    "get_builder",
    "list_builders",
    "register_builder",
    "baswana_sen_spanner",
    "expected_size_bound",
    "metric_mst_spanner",
    "bounded_degree_spanner",
    "theoretical_degree_bound",
    "cones_for_stretch",
    "theta_graph_spanner",
    "theta_graph_stretch",
    "complete_metric_spanner",
    "identity_spanner",
    "mst_spanner",
    "EdgeVerification",
    "ProfileStats",
    "StretchProfile",
    "VerificationEngine",
    "stretch_profile",
    "verify_spanner_edges",
    "verify_spanner_edges_detailed",
    "build_split_tree",
    "separation_for_stretch",
    "wspd_pairs",
    "wspd_spanner",
    "yao_cones_for_stretch",
    "yao_graph_spanner",
    "yao_graph_stretch",
]
