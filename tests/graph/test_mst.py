"""Unit tests for MST algorithms and the disjoint-set structure."""

from __future__ import annotations

import pytest

import networkx as nx
from oracles.graph import (
    contains_spanning_tree_edges,
    is_spanning_tree,
    is_tree,
    prim_mst,
    to_networkx,
)

from repro.errors import DisconnectedGraphError
from repro.graph.generators import cycle_graph, path_graph, random_connected_graph
from repro.graph.mst import DisjointSet, kruskal_mst, mst_weight
from repro.graph.weighted_graph import WeightedGraph


def _sets(ds: DisjointSet, elements) -> int:
    """The number of distinct roots among ``elements``."""
    return len({ds.find(element) for element in elements})


class TestDisjointSet:
    def test_initially_disjoint(self):
        ds = DisjointSet([1, 2, 3])
        assert _sets(ds, [1, 2, 3]) == 3
        assert ds.find(1) != ds.find(2)

    def test_union_merges(self):
        ds = DisjointSet()
        assert ds.union(1, 2) is True
        assert ds.find(1) == ds.find(2)
        assert _sets(ds, [1, 2]) == 1

    def test_union_idempotent(self):
        ds = DisjointSet()
        ds.union(1, 2)
        assert ds.union(2, 1) is False

    def test_transitive_connectivity(self):
        ds = DisjointSet()
        ds.union(1, 2)
        ds.union(2, 3)
        ds.union(4, 5)
        assert ds.find(1) == ds.find(3)
        assert ds.find(1) != ds.find(4)
        assert _sets(ds, [1, 2, 3, 4, 5]) == 2

    def test_lazy_element_registration(self):
        ds = DisjointSet()
        assert ds.find("new") == "new"
        assert len(ds) == 1

    def test_many_unions_single_set(self):
        ds = DisjointSet(range(100))
        for i in range(99):
            ds.union(i, i + 1)
        assert _sets(ds, range(100)) == 1
        assert ds.find(0) == ds.find(99)


class TestMST:
    def test_tree_is_its_own_mst(self):
        tree = path_graph(6, weight=2.0)
        mst = kruskal_mst(tree)
        assert mst.same_edges(tree)

    def test_cycle_drops_heaviest_edge(self):
        graph = cycle_graph(4, weight=1.0)
        graph.add_edge(0, 2, 5.0)
        mst = kruskal_mst(graph)
        assert mst.number_of_edges == 3
        assert not mst.has_edge(0, 2)

    def test_kruskal_and_prim_agree_on_weight(self, medium_random_graph):
        assert kruskal_mst(medium_random_graph).total_weight() == pytest.approx(
            prim_mst(medium_random_graph).total_weight()
        )

    def test_matches_networkx_weight(self, medium_random_graph):
        nx_graph = to_networkx(medium_random_graph)
        expected = nx.minimum_spanning_tree(nx_graph).size(weight="weight")
        assert mst_weight(medium_random_graph) == pytest.approx(expected)

    def test_mst_is_spanning_tree(self, medium_random_graph):
        mst = kruskal_mst(medium_random_graph)
        assert is_spanning_tree(medium_random_graph, mst)
        assert is_tree(mst)

    def test_mst_weight_disconnected_raises(self):
        graph = WeightedGraph(vertices=[1, 2, 3])
        graph.add_edge(1, 2, 1.0)
        with pytest.raises(DisconnectedGraphError):
            mst_weight(graph)

    def test_kruskal_on_disconnected_returns_forest(self):
        graph = WeightedGraph(edges=[(1, 2, 1.0), (3, 4, 1.0)])
        forest = kruskal_mst(graph)
        assert forest.number_of_edges == 2

    def test_prim_with_root(self, small_random_graph):
        root = next(iter(small_random_graph.vertices()))
        tree = prim_mst(small_random_graph, root=root)
        assert is_spanning_tree(small_random_graph, tree)

    def test_cut_property_on_random_graph(self):
        """Every MST edge is a minimum-weight edge across some cut (spot check)."""
        graph = random_connected_graph(25, 0.3, seed=7)
        mst = kruskal_mst(graph)
        for u, v, weight in mst.edges():
            # Remove the edge from the MST: this splits it into two components.
            cut_tree = mst.copy()
            cut_tree.remove_edge(u, v)
            from repro.graph.traversal import connected_components

            components = connected_components(cut_tree)
            side = next(c for c in components if u in c)
            # No graph edge across the cut may be lighter.
            for a, b, w in graph.edges():
                if (a in side) != (b in side):
                    assert w >= weight - 1e-9


class TestSpanningTreeCheckers:
    def test_is_spanning_tree_rejects_partial_tree(self, small_random_graph):
        mst = kruskal_mst(small_random_graph)
        u, v, _ = next(iter(mst.edges()))
        broken = mst.copy()
        broken.remove_edge(u, v)
        assert not is_spanning_tree(small_random_graph, broken)

    def test_is_spanning_tree_rejects_foreign_edges(self):
        graph = path_graph(4)
        tree = path_graph(4)
        tree.add_edge(0, 3, 1.0)
        tree.remove_edge(1, 2)
        assert not is_spanning_tree(graph, tree)

    def test_contains_spanning_tree_edges(self, small_random_graph):
        mst = kruskal_mst(small_random_graph)
        assert contains_spanning_tree_edges(small_random_graph, mst)
        pruned = small_random_graph.copy()
        u, v, _ = next(iter(mst.edges()))
        pruned.remove_edge(u, v)
        assert not contains_spanning_tree_edges(pruned, mst)
