"""Unit tests for r-nets and net hierarchies."""

from __future__ import annotations

import math

import pytest
from oracles.metric import net_assignment

from repro.errors import EmptyMetricError
from repro.metric.base import ExplicitMetric
from repro.metric.generators import line_points, uniform_points
from repro.metric.nets import NetHierarchy, greedy_net, is_r_net


class TestGreedyNet:
    def test_net_is_valid(self, small_points):
        radius = small_points.diameter() / 4.0
        net = greedy_net(small_points, radius)
        assert is_r_net(small_points, net, radius)

    def test_large_radius_single_centre(self, small_points):
        net = greedy_net(small_points, small_points.diameter() * 2)
        assert len(net) == 1

    def test_tiny_radius_keeps_everything(self, small_points):
        net = greedy_net(small_points, small_points.minimum_distance() / 2)
        assert len(net) == small_points.size

    def test_net_respects_seed_order(self, small_points):
        order = list(reversed(list(small_points.points())))
        net = greedy_net(small_points, small_points.diameter() / 3, seed_order=order)
        assert net[0] == order[0]

    def test_is_r_net_detects_packing_violation(self):
        metric = line_points(5, spacing=1.0)
        # Points 0 and 1 are only 1 apart: not a valid 2-net packing.
        assert not is_r_net(metric, [0, 1], 2.0)

    def test_is_r_net_detects_covering_violation(self):
        metric = line_points(10, spacing=1.0)
        # A single centre at one end cannot cover the far end at radius 3.
        assert not is_r_net(metric, [0], 3.0)

    def test_net_assignment_within_radius(self, small_points):
        radius = small_points.diameter() / 3.0
        net = greedy_net(small_points, radius)
        assignment = net_assignment(small_points, net, radius)
        for point, centre in assignment.items():
            assert small_points.distance(point, centre) <= radius + 1e-9


class TestNetHierarchy:
    def test_hierarchy_on_uniform_points(self, small_points):
        hierarchy = NetHierarchy(small_points)
        assert hierarchy.depth >= 2
        assert hierarchy.check_nesting()
        assert hierarchy.check_packing_and_covering()

    def test_top_level_single_centre(self, small_points):
        hierarchy = NetHierarchy(small_points)
        assert len(hierarchy.levels[0].centres) == 1

    def test_finest_level_scales_with_minimum_distance(self, small_points):
        hierarchy = NetHierarchy(small_points)
        finest = hierarchy.finest_level()
        assert finest.scale <= small_points.minimum_distance() or len(
            finest.centres
        ) == small_points.size

    def test_level_of_scale(self, small_points):
        hierarchy = NetHierarchy(small_points)
        level = hierarchy.level_of_scale(small_points.diameter() / 2)
        assert level.scale <= small_points.diameter() / 2 + 1e-12

    def test_parents_are_previous_level_centres(self, small_points):
        hierarchy = NetHierarchy(small_points)
        for coarser, finer in zip(hierarchy.levels, hierarchy.levels[1:]):
            coarser_centres = set(coarser.centres)
            for centre, parent in finer.parent.items():
                assert parent in coarser_centres

    def test_single_point_metric(self):
        metric = ExplicitMetric(["p"], {})
        hierarchy = NetHierarchy(metric)
        assert hierarchy.depth == 1
        assert hierarchy.levels[0].centres == ["p"]

    def test_empty_metric_rejected(self):
        with pytest.raises(EmptyMetricError):
            NetHierarchy(ExplicitMetric([], {}))

    def test_invalid_scale_factor(self, small_points):
        with pytest.raises(ValueError):
            NetHierarchy(small_points, scale_factor=1.5)

    def test_exponential_line_has_many_levels(self):
        metric = line_points(8, exponential=True)
        hierarchy = NetHierarchy(metric)
        # The aspect ratio is 2^7, so roughly log2(aspect) levels are needed.
        assert hierarchy.depth >= 6
