"""Deadline-driven degradation: chain walks under a fake clock.

The deadline laws are timestamp arithmetic, so every test injects a clock
whose reading is scripted — no sleeps, no wall-clock flakiness.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    InvalidStretchError,
    InvalidTierParamsError,
    TimeBudgetExceededError,
)
from repro.graph.generators import random_geometric_graph
from repro.metric.closure import MetricClosure
from repro.metric.generators import uniform_points
from repro.service.degrade import (
    DEFAULT_CHAIN,
    run_with_degradation,
    supported_chain,
)


class FakeClock:
    """Monotonic clock advancing ``step`` seconds per reading."""

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step
        return reading


@pytest.fixture()
def graph():
    return random_geometric_graph(40, 0.35, seed=3)


@pytest.fixture()
def metric():
    return MetricClosure(uniform_points(30, 2, seed=3))


def test_supported_chain_filters_by_workload(graph, metric):
    assert supported_chain(DEFAULT_CHAIN, graph) == ["greedy", "mst"]
    assert supported_chain(DEFAULT_CHAIN, metric) == list(DEFAULT_CHAIN)


def test_serves_the_first_supported_tier(graph):
    result = run_with_degradation(graph, 1.5)
    assert result.tier == "greedy"
    assert not result.degraded
    assert not result.deadline_exceeded
    statuses = {o.tier: o.status for o in result.outcomes}
    assert statuses["greedy"] == "served"
    assert statuses["approx-greedy"] == "unsupported"
    assert statuses["mst"] == "not-needed"
    assert result.spanner.subgraph.number_of_vertices == graph.number_of_vertices


def test_outcome_rows_cover_the_whole_chain(metric):
    result = run_with_degradation(metric, 2.0)
    assert [o.tier for o in result.outcomes] == list(DEFAULT_CHAIN)
    assert result.outcomes[0].status == "served"
    assert {o.status for o in result.outcomes[1:]} == {"not-needed"}


def test_spent_budget_degrades_to_the_terminal_tier(graph):
    # Every clock reading advances 10s against a 1s budget: the deadline is
    # blown before the first tier starts, so only the terminal fallback runs.
    result = run_with_degradation(
        graph, 1.5, budget_seconds=1.0, clock=FakeClock(step=10.0)
    )
    assert result.tier == "mst"
    assert result.degraded
    assert result.deadline_exceeded
    statuses = {o.tier: o.status for o in result.outcomes}
    assert statuses["greedy"] == "skipped-deadline"
    assert statuses["mst"] == "served"
    # The degraded answer is still a spanning answer.
    assert result.spanner.subgraph.number_of_vertices == graph.number_of_vertices


def test_generous_budget_never_degrades(graph):
    result = run_with_degradation(
        graph, 1.5, budget_seconds=1e9, clock=FakeClock(step=0.001)
    )
    assert result.tier == "greedy"
    assert not result.degraded
    assert not result.deadline_exceeded


def test_erroring_tier_is_recorded_and_the_walk_continues(graph):
    # A well-named param with a value greedy-parallel cannot use makes the
    # build raise TypeError; the walk must record the error and fall
    # through to the MST.
    result = run_with_degradation(
        graph,
        1.5,
        chain=("greedy-parallel", "mst"),
        params_by_tier={"greedy-parallel": {"bands": "many"}},
    )
    assert result.tier == "mst"
    assert result.degraded
    failed = next(o for o in result.outcomes if o.tier == "greedy-parallel")
    assert failed.status == "error"
    assert "TypeError" in (failed.error or "")


@pytest.mark.parametrize(
    "params",
    [
        {"greedy-parallel": {"wrokers": 2}},  # misspelt param
        {"greedy-parallel": {"workers": 2}},  # a param greedy-parallel does not take
        {"mst": {"bands": 4}},  # a real param of another tier
        {"theta": {"cones": 8}},  # a tier outside the chain
    ],
)
def test_bad_tier_params_raise_before_any_tier_runs(graph, params):
    clock = FakeClock(step=1.0)
    with pytest.raises(InvalidTierParamsError):
        run_with_degradation(
            graph, 1.5, chain=("greedy-parallel", "mst"), params_by_tier=params, clock=clock
        )
    assert clock.now == 0.0  # raised before the walk read the clock


@pytest.mark.parametrize("stretch", [float("nan"), 0.5])
def test_bad_stretch_raises_before_any_tier_runs(graph, stretch):
    with pytest.raises(InvalidStretchError):
        run_with_degradation(graph, stretch)


def test_all_tiers_unsupported_raises(graph):
    with pytest.raises(TimeBudgetExceededError):
        run_with_degradation(graph, 1.5, chain=("theta", "yao"))


def test_empty_chain_rejected(graph):
    with pytest.raises(ValueError):
        run_with_degradation(graph, 1.5, chain=())


def test_tier_timings_come_from_the_injected_clock(graph):
    result = run_with_degradation(graph, 1.5, clock=FakeClock(step=1.0))
    served = next(o for o in result.outcomes if o.status == "served")
    # Each build brackets the clock twice: exactly one scripted step apart
    # (plus the reads greedy itself never sees — the clock is ours alone).
    assert served.seconds == pytest.approx(1.0)
    assert result.elapsed_seconds > 0.0


def test_metric_workload_can_degrade_through_the_euclidean_tiers(metric):
    # Skip the greedy tiers by deadline: the terminal tier for a metric is
    # still the MST, and theta/yao sit between — with the budget spent only
    # the terminal runs.
    result = run_with_degradation(
        metric, 2.0, budget_seconds=0.5, clock=FakeClock(step=5.0)
    )
    assert result.tier == "mst"
    statuses = {o.tier: o.status for o in result.outcomes}
    assert statuses["theta"] == "skipped-deadline"
    assert statuses["yao"] == "skipped-deadline"
