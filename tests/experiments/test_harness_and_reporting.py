"""Unit tests for the experiment harness, workload registry and text reporting."""

from __future__ import annotations

import pytest

from repro.errors import UnknownWorkloadError
from repro.experiments.harness import ExperimentResult, timed, traced_peak_memory
from repro.experiments.reporting import format_value, render_table
from repro.experiments.workloads import WorkloadSpec, get_workload, list_workloads, register
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric


class TestExperimentResult:
    def test_add_rows_and_render(self):
        result = ExperimentResult("E0", "demo", "claim text")
        result.add_row(n=10, value=1.5)
        result.add_row(n=20, value=2.5)
        result.add_note("a note")
        text = result.render()
        assert "[E0] demo" in text
        assert "claim text" in text
        assert "a note" in text
        assert "20" in text

    def test_render_without_rows(self):
        assert "(no rows)" in ExperimentResult("E0", "x", "y").render()

    def test_timed_records_elapsed(self):
        result = ExperimentResult("E0", "x", "y")
        with timed(result):
            sum(range(1000))
        assert result.elapsed_seconds >= 0.0

    def test_timed_records_peak_memory(self):
        result = ExperimentResult("E0", "x", "y")
        with timed(result, measure_memory=True):
            _ = [0] * 50_000  # ~400 KB transient allocation
        assert result.peak_memory_bytes is not None
        assert result.peak_memory_bytes > 50_000 * 8 // 2

    def test_timed_skips_memory_tracking_by_default(self):
        result = ExperimentResult("E0", "x", "y")
        with timed(result):
            pass
        assert result.peak_memory_bytes is None
        assert "peak memory" not in result.render()

    def test_render_includes_peak_memory(self):
        result = ExperimentResult("E0", "x", "y")
        result.peak_memory_bytes = 3 * 1_048_576
        assert "peak memory: 3.0 MiB" in result.render()

    def test_traced_peak_memory_scales_with_allocation(self):
        with traced_peak_memory() as read_small:
            _ = [0] * 10_000
        with traced_peak_memory() as read_large:
            _ = [0] * 500_000
        assert read_large() > read_small()

    def test_traced_peak_memory_nests(self):
        with traced_peak_memory() as outer:
            with traced_peak_memory() as inner:
                _ = [0] * 100_000
            assert inner() > 0
        assert outer() >= inner()  # the inner window is inside the outer one

    def test_closed_context_keeps_its_peak_after_a_sibling_opens(self):
        with traced_peak_memory() as first:
            _ = [0] * 200_000  # ~1.6 MB
        recorded = first()
        with traced_peak_memory():
            # The sibling context must not bleed into the closed one's reading.
            assert first() == recorded
        assert first() == recorded
        assert recorded > 1_000_000

    def test_nested_reset_does_not_erase_outer_peak(self):
        # The outer context allocates (and frees) ~6 MB before the inner
        # context opens; the inner tracemalloc.reset_peak() must not make
        # the outer context forget that high-water mark.
        with traced_peak_memory() as outer:
            blob = [0] * 800_000  # ~6 MB
            del blob
            with traced_peak_memory() as inner:
                _ = [0] * 1_000
            assert inner() < 1_000_000
        assert outer() > 4_000_000


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(3.14159, precision=2) == "3.14"
        assert format_value(4.0) == "4"
        assert format_value("text") == "text"

    def test_render_table_alignment(self):
        table = render_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[2]) for line in lines[2:])

    def test_render_table_missing_cells(self):
        table = render_table([{"a": 1}, {"b": 2}])
        assert "a" in table and "b" in table

    def test_render_table_column_order(self):
        table = render_table([{"z": 1, "a": 2}], columns=["a", "z"])
        header = table.splitlines()[0]
        assert header.index("a") < header.index("z")


class TestWorkloadRegistry:
    def test_default_registry_nonempty(self):
        assert len(list_workloads()) >= 10
        assert len(list_workloads(kind="graph")) >= 4
        assert len(list_workloads(kind="metric")) >= 6

    def test_get_workload_builds_instances(self):
        graph = get_workload("random-graph-small").build()
        assert isinstance(graph, WeightedGraph)
        metric = get_workload("uniform-2d-small").build()
        assert isinstance(metric, FiniteMetric)

    def test_workloads_are_reproducible(self):
        first = get_workload("random-graph-small").build()
        second = get_workload("random-graph-small").build()
        assert first.same_edges(second)

    def test_unknown_workload(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("no-such-workload")

    def test_register_custom_workload(self):
        spec = WorkloadSpec(
            name="tmp-test-workload",
            kind="graph",
            description="temporary",
            factory=lambda: WeightedGraph(edges=[(0, 1, 1.0)]),
        )
        register(spec)
        assert get_workload("tmp-test-workload").build().number_of_edges == 1

    def test_every_registered_workload_builds(self):
        for spec in list_workloads():
            instance = spec.build()
            if spec.kind == "graph":
                assert isinstance(instance, WeightedGraph)
                assert instance.number_of_vertices > 0
            else:
                assert isinstance(instance, FiniteMetric)
                assert instance.size > 0
