"""Unit tests for the CSR band-parallel greedy builder.

The builder's contract (:mod:`repro.core.parallel_greedy`) is *byte-identical
output*: for any worker count and any band count, the spanner equals the
serial Algorithm 1 spanner edge for edge, weight for weight, and every
deterministic counter (filter settles, replay settles, candidates, cache
hits) is a pure function of the workload — never of the fan-out.
"""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric
from repro.core.parallel_greedy import (
    DEFAULT_BANDS,
    parallel_greedy_spanner,
    parallel_greedy_spanner_of_metric,
)
from repro.experiments.harness import fork_available
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
        parallel = parallel_greedy_spanner(geometric_instance, 2.0, workers=1)
        assert canonical_edges(parallel) == canonical_edges(serial_spanner)
        assert parallel.algorithm == "greedy-parallel"
        assert parallel.stretch == serial_spanner.stretch

    @pytest.mark.parametrize("bands", [1, 3, DEFAULT_BANDS, 64])
    def test_band_count_never_changes_the_spanner(
        self, geometric_instance, serial_spanner, bands
    ):
        parallel = parallel_greedy_spanner(geometric_instance, 2.0, workers=1, bands=bands)
        assert canonical_edges(parallel) == canonical_edges(serial_spanner)

    def test_workers_never_change_the_spanner_or_counters(self, geometric_instance):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        one = parallel_greedy_spanner(geometric_instance, 2.0, workers=1, bands=6)
        two = parallel_greedy_spanner(geometric_instance, 2.0, workers=2, bands=6)
        assert canonical_edges(one) == canonical_edges(two)
        # Every deterministic counter is fan-out independent; only the
        # fan-out bookkeeping fields may differ.
        fanout_fields = {"build_workers", "build_shared_memory", "build_pool_fallbacks"}
        for field, value in one.metadata.items():
            if field in fanout_fields:
                continue
            assert two.metadata[field] == value, field

    def test_metadata_counters_present(self, geometric_instance):
        parallel = parallel_greedy_spanner(geometric_instance, 2.0, workers=1)
        for counter in (
            "build_filter_settles",
            "build_replay_settles",
            "build_candidate_edges",
            "build_cache_hits",
            "build_bands",
            "build_workers",
            "edges_examined",
            "edges_added",
        ):
            assert counter in parallel.metadata, counter
        assert parallel.metadata["build_workers"] == 1
        assert parallel.metadata["edges_examined"] == geometric_instance.number_of_edges

    def test_coverage_cache_fires(self, geometric_instance):
        """On a non-trivial instance the monotone coverage cache must prune
        edges before they ever reach a band's filter groups."""
        parallel = parallel_greedy_spanner(geometric_instance, 2.0, workers=1)
        assert parallel.metadata["build_cache_hits"] > 0

    def test_stretch_guarantee_holds(self, geometric_instance):
        parallel = parallel_greedy_spanner(geometric_instance, 2.0, workers=1)
        parallel.verify_stretch()


class TestMetricPath:
    @pytest.fixture(scope="module")
    def metric(self):
        return uniform_points(40, 2, seed=5)

    def test_matches_serial_greedy_of_metric(self, metric):
        serial = greedy_spanner_of_metric(metric, 1.5)
        parallel = parallel_greedy_spanner_of_metric(metric, 1.5, workers=1)
        assert canonical_edges(parallel) == canonical_edges(serial)
        assert parallel.algorithm == "greedy-parallel-metric"

    def test_workers_match_on_metric(self, metric):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        one = parallel_greedy_spanner_of_metric(metric, 1.5, workers=1)
        two = parallel_greedy_spanner_of_metric(metric, 1.5, workers=2)
        assert canonical_edges(one) == canonical_edges(two)


class TestRegistryBuilder:
    def test_greedy_parallel_is_registered(self):
        from repro.spanners.registry import builder_names

        assert "greedy-parallel" in builder_names()

    def test_registry_builder_matches_greedy(self, geometric_instance):
        from repro.spanners.registry import build_spanner

        reference = build_spanner("greedy", geometric_instance, 2.0)
        parallel = build_spanner("greedy-parallel", geometric_instance, 2.0, workers=2)
        assert canonical_edges(parallel) == canonical_edges(reference)


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
class TestWorkerDeathRecovery:
    """A fork worker SIGKILLed mid-band must not fail (or hang) the build.

    The supervisor detects the death (``BrokenProcessPool`` under the
    hood), re-filters the orphaned band inline — same verdicts, same
    counters — and respawns fresh workers for the following bands, so the
    spanner is byte-identical to an unfailed run.  ``REPRO_CHAOS=1`` (the
    CI chaos smoke job) widens the injection to several bands.
    """

    def _kill_bands(self):
        import os

        if os.environ.get("REPRO_CHAOS"):
            return [0, 1, 3]
        return [1]

    def test_sigkill_mid_band_yields_byte_identical_spanner(
        self, geometric_instance, serial_spanner, monkeypatch
    ):
        from repro.core import parallel_greedy as pg

        clean = parallel_greedy_spanner(
            geometric_instance, 2.0, workers=2, bands=6
        )
        for band in self._kill_bands():
            monkeypatch.setattr(pg, "_KILL_AT_BAND", band)
            survived = parallel_greedy_spanner(
                geometric_instance, 2.0, workers=2, bands=6
            )
            monkeypatch.setattr(pg, "_KILL_AT_BAND", None)
            assert survived.metadata["build_worker_deaths"] >= 1.0
            assert canonical_edges(survived) == canonical_edges(serial_spanner)
            # The inline re-filter reproduces the dead workers' verdicts
            # exactly: every deterministic counter matches the clean run.
            for key in (
                "build_filter_settles",
                "build_replay_settles",
                "build_candidate_edges",
                "build_cache_hits",
                "edges_added",
            ):
                assert survived.metadata[key] == clean.metadata[key]

    def test_clean_runs_record_zero_worker_deaths(self, geometric_instance):
        spanner = parallel_greedy_spanner(geometric_instance, 2.0, workers=2, bands=4)
        assert spanner.metadata["build_worker_deaths"] == 0.0
