"""Unit tests for flood broadcast over spanner overlays."""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_spanner
from repro.distributed.broadcast import broadcast_over_overlay, flood_broadcast
from repro.distributed.comparison import compare_overlays
from repro.graph.generators import path_graph, random_geometric_graph, star_graph
from repro.graph.shortest_paths import single_source_distances
from repro.spanners.trivial import mst_spanner


class TestFloodBroadcast:
    def test_reaches_every_vertex(self, geometric_network):
        source = next(iter(geometric_network.vertices()))
        _, delivery = flood_broadcast(geometric_network, source)
        assert len(delivery) == geometric_network.number_of_vertices

    def test_delivery_times_are_at_least_distances(self, geometric_network):
        source = next(iter(geometric_network.vertices()))
        _, delivery = flood_broadcast(geometric_network, source)
        distances = single_source_distances(geometric_network, source)
        for vertex, time in delivery.items():
            assert time >= distances[vertex] - 1e-9

    def test_flood_on_full_graph_matches_distances_exactly(self, geometric_network):
        """Flooding the full graph delivers along shortest paths."""
        source = next(iter(geometric_network.vertices()))
        _, delivery = flood_broadcast(geometric_network, source)
        distances = single_source_distances(geometric_network, source)
        for vertex, time in delivery.items():
            assert time == pytest.approx(distances[vertex])

    def test_star_graph_one_message_per_leaf(self):
        graph = star_graph(6)
        stats, delivery = flood_broadcast(graph, 0)
        assert stats.messages_sent == 5
        assert len(delivery) == 6

    def test_path_graph_sequential_delivery(self):
        graph = path_graph(5, weight=2.0)
        _, delivery = flood_broadcast(graph, 0)
        assert delivery[4] == pytest.approx(8.0)


class TestOverlayComparison:
    def test_broadcast_result_fields(self, geometric_network):
        source = next(iter(geometric_network.vertices()))
        result = broadcast_over_overlay(
            geometric_network, geometric_network, source, name="full"
        )
        assert result.vertices_reached == geometric_network.number_of_vertices
        assert result.stretch_vs_optimal == pytest.approx(1.0)
        assert result.as_row()["edges"] == geometric_network.number_of_edges

    def test_greedy_overlay_trades_cost_for_delay(self, geometric_network):
        source = next(iter(geometric_network.vertices()))
        greedy = greedy_spanner(geometric_network, 1.5)
        overlays = {
            "full": geometric_network,
            "mst": mst_spanner(geometric_network).subgraph,
            "greedy": greedy.subgraph,
        }
        comparison = compare_overlays(
            geometric_network, overlays, protocols=("broadcast",), source=source
        )
        results = {r.overlay_name: r for r in comparison.broadcast}
        # Everyone reaches all vertices.
        for result in results.values():
            assert result.vertices_reached == geometric_network.number_of_vertices
        # Communication cost ordering: MST <= greedy <= full graph flood.
        assert (
            results["mst"].statistics.total_communication_cost
            <= results["greedy"].statistics.total_communication_cost + 1e-9
        )
        assert (
            results["greedy"].statistics.total_communication_cost
            <= results["full"].statistics.total_communication_cost + 1e-9
        )
        # Delay ordering: full graph is fastest; the greedy overlay stays within
        # its stretch bound of optimal; the MST can be slower.
        assert results["full"].stretch_vs_optimal == pytest.approx(1.0)
        assert results["greedy"].stretch_vs_optimal <= 1.5 + 1e-6
        assert results["greedy"].stretch_vs_optimal <= results["mst"].stretch_vs_optimal + 1e-9

    def test_default_source_is_first_vertex(self, geometric_network):
        results = compare_overlays(
            geometric_network, {"full": geometric_network}, protocols=("broadcast",)
        ).broadcast
        assert len(results) == 1
