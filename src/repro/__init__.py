"""Reproduction of "The Greedy Spanner is Existentially Optimal" (Filtser & Solomon, PODC 2016).

The package is organised around the paper's structure:

* :mod:`repro.graph` — the weighted-graph substrate (graphs, shortest paths,
  MSTs, girth, generators),
* :mod:`repro.metric` — finite metric spaces, doubling dimension, nets,
  point-set workloads,
* :mod:`repro.core` — the greedy spanner (Algorithm 1), the
  approximate-greedy algorithm (Section 5), and executable versions of the
  paper's optimality lemmas (Sections 3–4),
* :mod:`repro.spanners` — baseline constructions the greedy spanner is
  compared against (Baswana–Sen, Θ-graph, WSPD, net-tree, MST),
* :mod:`repro.distributed` — the motivating application substrate
  (broadcast / synchronizers over spanner overlays, Section 1.1),
* :mod:`repro.experiments` — the harness that regenerates the paper's
  figures and claims (``repro experiment <id>``, E1–E9) and the
  ``BENCH_*.json`` perf trajectories (``repro bench <name>``).

Quickstart::

    from repro import greedy_spanner
    from repro.graph.generators import random_connected_graph

    graph = random_connected_graph(100, 0.1, seed=0)
    spanner = greedy_spanner(graph, t=3.0)
    print(spanner.number_of_edges, spanner.lightness())
"""

from repro.core import (
    Spanner,
    analyse_figure1,
    approximate_greedy_spanner,
    existential_optimality_certificate,
    greedy_spanner,
    greedy_spanner_of_metric,
    metric_optimality_certificate,
)
from repro.graph import WeightedGraph
from repro.metric import EuclideanMetric, GraphMetric, MetricClosure, sorted_pair_stream
from repro.spanners.registry import build_spanner, builder_names

__version__ = "1.1.0"

__all__ = [
    "Spanner",
    "WeightedGraph",
    "EuclideanMetric",
    "GraphMetric",
    "MetricClosure",
    "sorted_pair_stream",
    "greedy_spanner",
    "greedy_spanner_of_metric",
    "approximate_greedy_spanner",
    "build_spanner",
    "builder_names",
    "analyse_figure1",
    "existential_optimality_certificate",
    "metric_optimality_certificate",
    "__version__",
]
