"""Unit tests for the CSR band-filter greedy builder.

The builder's contract (:mod:`repro.core.parallel_greedy`) is *byte-identical
output*: for any band count, the spanner equals the serial Algorithm 1
spanner edge for edge, weight for weight, and every deterministic counter
(filter settles, replay settles, candidates, cache hits) is a pure function
of the workload and the band size.
"""

from __future__ import annotations

import math

import pytest

from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.parallel_greedy import (
    DEFAULT_BANDS,
    parallel_greedy_spanner,
    parallel_greedy_spanner_of_metric,
)
from repro.errors import InvalidStretchError
from repro.graph.generators import random_geometric_graph
from repro.metric.generators import uniform_points


def canonical_edges(spanner):
    """The spanner's edge set as exactly-comparable sorted triples."""
    edges = []
    for u, v, weight in spanner.subgraph.edges():
        a, b = (u, v) if repr(u) <= repr(v) else (v, u)
        edges.append((repr(a), repr(b), float(weight)))
    edges.sort()
    return edges


@pytest.fixture(scope="module")
def geometric_instance():
    return random_geometric_graph(70, 0.3, seed=11)


@pytest.fixture(scope="module")
def serial_spanner(geometric_instance):
    return greedy_spanner(geometric_instance, 2.0)


class TestGraphPath:
    def test_matches_serial_greedy(self, geometric_instance, serial_spanner):
        parallel = parallel_greedy_spanner(geometric_instance, 2.0)
        assert canonical_edges(parallel) == canonical_edges(serial_spanner)
        assert parallel.algorithm == "greedy-parallel"
        assert parallel.stretch == serial_spanner.stretch

    @pytest.mark.parametrize("bands", [1, 3, DEFAULT_BANDS, 64])
    def test_band_count_never_changes_the_spanner(
        self, geometric_instance, serial_spanner, bands
    ):
        parallel = parallel_greedy_spanner(geometric_instance, 2.0, bands=bands)
        assert canonical_edges(parallel) == canonical_edges(serial_spanner)

    def test_metadata_counters_present(self, geometric_instance):
        parallel = parallel_greedy_spanner(geometric_instance, 2.0)
        for counter in (
            "build_filter_settles",
            "build_replay_settles",
            "build_candidate_edges",
            "build_cache_hits",
            "build_bands",
            "edges_examined",
            "edges_added",
        ):
            assert counter in parallel.metadata, counter
        assert parallel.metadata["edges_examined"] == geometric_instance.number_of_edges

    def test_coverage_cache_fires(self, geometric_instance):
        """On a non-trivial instance the monotone coverage cache must prune
        edges before they ever reach a band's filter groups."""
        parallel = parallel_greedy_spanner(geometric_instance, 2.0)
        assert parallel.metadata["build_cache_hits"] > 0

    def test_stretch_guarantee_holds(self, geometric_instance):
        parallel = parallel_greedy_spanner(geometric_instance, 2.0)
        parallel.verify_stretch()


class TestMetricPath:
    @pytest.fixture(scope="module")
    def metric(self):
        return uniform_points(40, 2, seed=5)

    def test_matches_serial_greedy_of_metric(self, metric):
        serial = greedy_spanner_of_metric(metric, 1.5)
        parallel = parallel_greedy_spanner_of_metric(metric, 1.5)
        assert canonical_edges(parallel) == canonical_edges(serial)
        assert parallel.algorithm == "greedy-parallel-metric"


class TestRegistryBuilder:
    def test_greedy_parallel_is_registered(self):
        from repro.spanners.registry import builder_names

        assert "greedy-parallel" in builder_names()

    def test_registry_builder_matches_greedy(self, geometric_instance):
        from repro.spanners.registry import build_spanner

        reference = build_spanner("greedy", geometric_instance, 2.0)
        parallel = build_spanner("greedy-parallel", geometric_instance, 2.0)
        assert canonical_edges(parallel) == canonical_edges(reference)


@pytest.mark.parametrize("stretch", [math.nan, 0.5])
@pytest.mark.parametrize("builder", ["greedy", "greedy-parallel"])
def test_bad_stretch_is_rejected(builder, stretch, geometric_instance):
    """NaN compares false with everything, so a bare ``t < 1`` test let it
    through and built an empty spanner; both builders must raise instead."""
    from repro.spanners.registry import build_spanner

    with pytest.raises(InvalidStretchError):
        build_spanner(builder, geometric_instance, stretch)
