"""Unit tests for the synchronizer cost model."""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_spanner
from repro.distributed.comparison import compare_overlays
from repro.distributed.synchronizer import synchronizer_cost
from repro.graph.generators import path_graph
from repro.spanners.trivial import mst_spanner


class TestSynchronizerCost:
    def test_path_graph_costs(self):
        graph = path_graph(5, weight=2.0)
        cost = synchronizer_cost(graph, name="path")
        assert cost.messages_per_pulse == 8
        assert cost.communication_per_pulse == pytest.approx(16.0)
        assert cost.pulse_delay == pytest.approx(8.0)

    def test_pulses_scale_total_cost(self):
        graph = path_graph(4)
        single = synchronizer_cost(graph, pulses=1)
        many = synchronizer_cost(graph, pulses=10)
        assert many.total_cost == pytest.approx(10 * single.total_cost)

    def test_invalid_pulses(self):
        with pytest.raises(ValueError):
            synchronizer_cost(path_graph(3), pulses=0)

    def test_as_row(self):
        row = synchronizer_cost(path_graph(3)).as_row()
        assert set(row) == {
            "messages_per_pulse",
            "communication_per_pulse",
            "pulse_delay",
            "total_cost",
        }


class TestOverlayComparison:
    def test_spanner_overlay_cheaper_than_full_graph(self, geometric_network):
        greedy = greedy_spanner(geometric_network, 1.5)
        costs = {
            c.overlay_name: c
            for c in compare_overlays(
                None,
                {
                    "full": geometric_network,
                    "greedy": greedy.subgraph,
                    "mst": mst_spanner(geometric_network).subgraph,
                },
                protocols=("synchronizer",),
            ).synchronizer
        }
        assert (
            costs["greedy"].communication_per_pulse
            < costs["full"].communication_per_pulse
        )
        assert costs["mst"].communication_per_pulse <= costs["greedy"].communication_per_pulse
        # The spanner's pulse delay stays within the stretch factor of the full graph's.
        assert costs["greedy"].pulse_delay <= 1.5 * costs["full"].pulse_delay + 1e-9
