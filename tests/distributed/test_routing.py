"""Unit tests for spanner-based compact routing."""

from __future__ import annotations

import pytest
from oracles.distributed import ReferenceRoutingScheme

from repro.core.greedy import greedy_spanner
from repro.distributed.comparison import compare_overlays
from repro.distributed.routing import RoutingScheme, evaluate_routing, random_demands
from repro.errors import DisconnectedGraphError
from repro.graph.generators import path_graph, random_geometric_graph
from repro.graph.shortest_paths import pair_distance
from repro.graph.weighted_graph import WeightedGraph
from repro.spanners.trivial import mst_spanner


class TestRoutingScheme:
    def test_routes_follow_shortest_paths_on_overlay(self, geometric_network):
        scheme = RoutingScheme(geometric_network)
        vertices = list(geometric_network.vertices())
        for u, v in [(vertices[0], vertices[10]), (vertices[3], vertices[25])]:
            route = scheme.route(u, v)
            assert route.path[0] == u and route.path[-1] == v
            assert route.weight == pytest.approx(pair_distance(geometric_network, u, v))

    def test_route_to_self(self, geometric_network):
        v = next(iter(geometric_network.vertices()))
        route = RoutingScheme(geometric_network).route(v, v)
        assert route.path == (v,)
        assert route.weight == 0.0
        assert route.hops == 0

    def test_next_hop_is_a_neighbour(self, geometric_network):
        scheme = RoutingScheme(geometric_network)
        vertices = list(geometric_network.vertices())
        hop = scheme.next_hop(vertices[0], vertices[20])
        assert geometric_network.has_edge(vertices[0], hop)

    def test_table_entries_and_ports(self, geometric_network):
        scheme = RoutingScheme(geometric_network)
        n = geometric_network.number_of_vertices
        for vertex in list(geometric_network.vertices())[:5]:
            assert scheme.table_entries(vertex) == n - 1
            assert scheme.port_count(vertex) == geometric_network.degree(vertex)
        assert scheme.max_port_count() == geometric_network.max_degree()

    def test_disconnected_overlay_rejected(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            RoutingScheme(graph)

    def test_path_graph_routing_hops(self):
        graph = path_graph(6)
        route = RoutingScheme(graph).route(0, 5)
        assert route.hops == 5


class TestEvaluation:
    def test_random_demands_are_valid_pairs(self, geometric_network):
        demands = random_demands(geometric_network, 20, seed=1)
        assert len(demands) == 20
        for u, v in demands:
            assert u != v
            assert geometric_network.has_vertex(u) and geometric_network.has_vertex(v)

    def test_routing_on_full_graph_has_stretch_one(self, geometric_network):
        demands = random_demands(geometric_network, 30, seed=2)
        report = evaluate_routing(geometric_network, geometric_network, demands, name="full")
        assert report.max_route_stretch == pytest.approx(1.0)
        assert report.mean_route_stretch == pytest.approx(1.0)

    def test_routing_over_greedy_overlay_within_stretch(self, geometric_network):
        greedy = greedy_spanner(geometric_network, 1.5)
        demands = random_demands(geometric_network, 40, seed=3)
        report = evaluate_routing(
            geometric_network, greedy.subgraph, demands, name="greedy"
        )
        assert report.max_route_stretch <= 1.5 + 1e-9
        assert report.max_ports == greedy.max_degree

    def test_compare_routing_overlays_trade_off(self, geometric_network):
        greedy = greedy_spanner(geometric_network, 1.5)
        reports = {
            r.overlay_name: r
            for r in compare_overlays(
                geometric_network,
                {
                    "full": geometric_network,
                    "greedy": greedy.subgraph,
                    "mst": mst_spanner(geometric_network).subgraph,
                },
                protocols=("routing",),
                demand_count=40,
                seed=4,
            ).routing
        }
        # Port counts (per-vertex load) shrink from full graph to spanner to MST-ish.
        assert reports["greedy"].max_ports <= reports["full"].max_ports
        # Route quality: full is exact, greedy within its stretch, MST can be worse.
        assert reports["full"].max_route_stretch == pytest.approx(1.0)
        assert reports["greedy"].max_route_stretch <= 1.5 + 1e-9
        assert reports["mst"].max_route_stretch >= reports["greedy"].max_route_stretch - 1e-9

    def test_report_as_row(self, geometric_network):
        demands = random_demands(geometric_network, 10, seed=5)
        row = evaluate_routing(geometric_network, geometric_network, demands).as_row()
        assert set(row) == {
            "edges",
            "max_ports",
            "demands",
            "max_route_stretch",
            "mean_route_stretch",
            "stretch_p50",
            "stretch_p90",
            "total_routed_weight",
            "table_bytes",
        }


class TestPartialTables:
    """``on_unreachable="partial"`` keeps repair-time routing possible."""

    def test_raise_mode_rejects_disconnected(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            RoutingScheme(graph, on_unreachable="raise")

    def test_partial_mode_reports_unreachable_set(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        scheme = RoutingScheme(graph, on_unreachable="partial")
        assert scheme.unreachable  # the smaller component, from some source
        assert scheme.unreachable in ({1, 2}, {3, 4})

    def test_partial_mode_routes_within_component(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        for scheme_class in (RoutingScheme, ReferenceRoutingScheme):
            scheme = scheme_class(graph, on_unreachable="partial")
            route = scheme.route(1, 3)
            assert route.path == (1, 2, 3)

    def test_invalid_policy_rejected(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0)])
        with pytest.raises(ValueError):
            RoutingScheme(graph, on_unreachable="ignore")

    def test_connected_graph_has_empty_unreachable(self, geometric_network):
        scheme = RoutingScheme(geometric_network, on_unreachable="partial")
        assert scheme.unreachable == frozenset()


class TestDetourRouting:
    """Hop-by-hop detours around failed links, with pre-failure tables."""

    def _overlay(self):
        from repro.graph.generators import random_geometric_graph

        graph = random_geometric_graph(60, 0.3, seed=13)
        return greedy_spanner(graph, 1.5).subgraph

    def test_no_failures_means_no_detours(self):
        from repro.distributed.routing import evaluate_detour_routing

        overlay = self._overlay()
        demands = random_demands(overlay, 20, seed=3)
        report = evaluate_detour_routing(overlay, demands, set())
        assert report.detours == 0
        assert report.undelivered == 0
        assert report.degradation_max == pytest.approx(1.0)

    def test_detour_reports_identical_across_modes(self):
        from repro.distributed.faults import FaultPlan
        from repro.distributed.routing import evaluate_detour_routing

        overlay = self._overlay()
        plan = FaultPlan.sample(overlay, seed=11, edge_failure_rate=0.1)
        failed = set(plan.failed_edges())
        demands = random_demands(overlay, 30, seed=3)
        destinations = sorted({d for _, d in demands}, key=repr)
        reference = ReferenceRoutingScheme(overlay, destinations=destinations)
        assert (
            evaluate_detour_routing(overlay, demands, failed).as_row()
            == evaluate_detour_routing(overlay, demands, failed, scheme=reference).as_row()
        )

    def test_detoured_routes_avoid_failed_links_and_arrive(self):
        from repro.distributed.faults import FaultPlan, edge_key
        from repro.distributed.routing import RoutingScheme

        overlay = self._overlay()
        plan = FaultPlan.sample(overlay, seed=11, edge_failure_rate=0.1)
        failed = set(plan.failed_edges())
        scheme = RoutingScheme(overlay)
        demands = random_demands(overlay, 30, seed=3)
        delivered = 0
        for source, destination in demands:
            route, _ = scheme.route_with_detours(source, destination, failed)
            if route is None:
                continue
            delivered += 1
            assert route.path[0] == source and route.path[-1] == destination
            for a, b in zip(route.path, route.path[1:]):
                assert edge_key(a, b) not in failed
        assert delivered > 0

    def test_degradation_at_least_one(self):
        from repro.distributed.faults import FaultPlan
        from repro.distributed.routing import evaluate_detour_routing

        overlay = self._overlay()
        plan = FaultPlan.sample(overlay, seed=11, edge_failure_rate=0.15)
        demands = random_demands(overlay, 30, seed=3)
        report = evaluate_detour_routing(overlay, demands, set(plan.failed_edges()))
        assert report.degradation_p50 >= 1.0 - 1e-12
        assert report.degradation_p90 <= report.degradation_max + 1e-12
        assert report.delivered + report.undelivered == report.demands
