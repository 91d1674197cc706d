"""The paper's contribution: the greedy spanner, its optimality, and approximate-greedy."""

from repro.core.spanner import Spanner, SpannerStatistics
from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.approximate_greedy import (
    ApproximateGreedyParameters,
    approximate_greedy_spanner,
    derive_parameters,
)
from repro.core.parallel_greedy import (
    DEFAULT_BANDS,
    parallel_greedy_spanner,
    parallel_greedy_spanner_of_metric,
)
from repro.core.query_engine import QueryEngine, reference_queries_ids
from repro.core.distance_oracle import (
    BoundedDijkstraOracle,
    CachedDijkstraOracle,
    DistanceOracle,
    make_oracle,
)
from repro.core.optimality import (
    Figure1Report,
    OptimalityCertificate,
    analyse_figure1,
    brute_force_optimal_spanner,
    existential_optimality_certificate,
    greedy_is_fixed_point,
    metric_optimality_certificate,
    verify_lemma3_self_spanner,
    verify_lemma7_weight,
    verify_lemma8_size,
    verify_observation2,
    verify_observation6,
    verify_observation12,
)
from repro.core.lightness import (
    althofer_size_bound,
    chechik_wulffnilsen_lightness_bound,
    gottlieb_lightness_bound,
    lightness,
    normalized_size,
    smid_doubling_lightness_bound,
)

__all__ = [
    "Spanner",
    "SpannerStatistics",
    "greedy_spanner",
    "greedy_spanner_of_metric",
    "ApproximateGreedyParameters",
    "approximate_greedy_spanner",
    "derive_parameters",
    "DEFAULT_BANDS",
    "parallel_greedy_spanner",
    "parallel_greedy_spanner_of_metric",
    "QueryEngine",
    "reference_queries_ids",
    "BoundedDijkstraOracle",
    "CachedDijkstraOracle",
    "DistanceOracle",
    "make_oracle",
    "Figure1Report",
    "OptimalityCertificate",
    "analyse_figure1",
    "brute_force_optimal_spanner",
    "existential_optimality_certificate",
    "greedy_is_fixed_point",
    "metric_optimality_certificate",
    "verify_lemma3_self_spanner",
    "verify_lemma7_weight",
    "verify_lemma8_size",
    "verify_observation2",
    "verify_observation6",
    "verify_observation12",
    "althofer_size_bound",
    "chechik_wulffnilsen_lightness_bound",
    "gottlieb_lightness_bound",
    "lightness",
    "normalized_size",
    "smid_doubling_lightness_bound",
]
