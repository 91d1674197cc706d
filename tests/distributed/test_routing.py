"""Unit tests for spanner-based compact routing."""

from __future__ import annotations

import pytest
from oracles.distributed import ReferenceRoutingScheme

from repro.core.greedy import greedy_spanner
from repro.distributed.comparison import compare_overlays
from repro.distributed.routing import RoutingScheme, evaluate_routing, random_demands
from repro.errors import DisconnectedGraphError, VertexNotFoundError
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


class TestPartialTables:
    """A disconnected overlay gets no partial tables: construction raises."""

    def test_raise_mode_rejects_disconnected(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        for destinations in (None, [1, 2]):
            with pytest.raises(DisconnectedGraphError, match="2 of 4 vertices"):
                RoutingScheme(graph, destinations=destinations)


class TestUnknownVertices:
    """A vertex outside the overlay raises the typed ``VertexNotFoundError``."""

    @pytest.mark.parametrize("scheme_class", [RoutingScheme, ReferenceRoutingScheme])
    @pytest.mark.parametrize("source, destination", [(9, 2), (0, 9), (9, 9)])
    def test_route_and_next_hop_name_the_missing_vertex(
        self, scheme_class, source, destination
    ):
        scheme = scheme_class(path_graph(3))
        for lookup in (scheme.route, scheme.next_hop):
            with pytest.raises(VertexNotFoundError) as raised:
                lookup(source, destination)
            assert raised.value.vertex == 9
            assert isinstance(raised.value, KeyError)

    def test_table_entries_of_a_missing_vertex(self):
        with pytest.raises(VertexNotFoundError):
            RoutingScheme(path_graph(3)).table_entries(9)

    def test_destination_without_a_row_keeps_its_plain_key_error(self):
        scheme = RoutingScheme(path_graph(3), destinations=[0])
        assert scheme.route(2, 0).path == (2, 1, 0)
        for lookup in (scheme.route, scheme.next_hop):
            with pytest.raises(KeyError) as raised:
                lookup(0, 2)
            assert not isinstance(raised.value, VertexNotFoundError)


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
