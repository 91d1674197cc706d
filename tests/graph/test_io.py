"""Unit tests for the networkx bridge the graph tests cross-check against."""

from __future__ import annotations

import pytest

import networkx as nx
from oracles.graph import from_networkx, to_networkx

from repro.errors import GraphError


class TestNetworkxBridge:
    def test_to_networkx_preserves_weights(self, small_random_graph):
        nx_graph = to_networkx(small_random_graph)
        assert nx_graph.number_of_edges() == small_random_graph.number_of_edges
        for u, v, w in small_random_graph.edges():
            assert nx_graph[u][v]["weight"] == pytest.approx(w)

    def test_from_networkx_round_trip(self, small_random_graph):
        restored = from_networkx(to_networkx(small_random_graph))
        assert restored.same_edges(small_random_graph)

    def test_from_networkx_default_weight(self):
        nx_graph = nx.path_graph(4)
        graph = from_networkx(nx_graph, default_weight=2.5)
        assert graph.total_weight() == pytest.approx(7.5)

    def test_directed_graph_rejected(self):
        with pytest.raises(GraphError):
            from_networkx(nx.DiGraph([(1, 2)]))

    def test_multigraph_rejected(self):
        with pytest.raises(GraphError):
            from_networkx(nx.MultiGraph([(1, 2)]))
