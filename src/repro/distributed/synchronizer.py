"""Synchronizer cost model over spanner overlays.

Network synchronizers (Awerbuch 1985; cited by the paper's Section 1.1) let a
synchronous algorithm run on an asynchronous network.  Per pulse, the classic
trade-off is:

* synchronizer **α** — every vertex notifies all neighbours: message cost
  ``O(|E|)`` per pulse, delay ``O(1)``;
* synchronizer **β** — notifications travel up and down a spanning tree:
  message cost ``O(n)`` per pulse, delay proportional to the tree depth;
* a **spanner-based** synchronizer (γ-like) runs α on a sparse, low-stretch
  overlay: message cost proportional to the overlay's size/weight, delay
  proportional to its stretch.

This module provides a cost *model* (closed-form accounting over a given
overlay) rather than a packet-level simulation — the quantity the paper's
motivation refers to is exactly this aggregate trade-off, and the broadcast
simulator of :mod:`repro.distributed.broadcast` already exercises the
event-driven path.

The only non-trivial quantity is the pulse delay — the overlay's weighted
diameter, computed with flat-array sweeps
(:func:`~repro.graph.shortest_paths.indexed_weighted_diameter`), identical
to the seed dict-Dijkstra diameter the tests compare it against
(``weighted_diameter`` in ``tests/oracles/distributed.py``).  At bench scale the exact ``n``-sweep diameter is itself
the bottleneck, so ``diameter_method="double-sweep"`` substitutes the
classic two-sweep lower bound (exact on trees).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.engine import indexed_overlay
from repro.graph.shortest_paths import (
    indexed_double_sweep_diameter,
    indexed_weighted_diameter,
)
from repro.graph.weighted_graph import WeightedGraph


@dataclass(frozen=True)
class SynchronizerCost:
    """Per-pulse cost of a synchronizer running on a given overlay.

    Attributes
    ----------
    overlay_name:
        Label of the overlay.
    messages_per_pulse:
        Number of messages exchanged per synchronization pulse (two per
        overlay edge: one in each direction).
    communication_per_pulse:
        Total weighted communication per pulse (twice the overlay weight).
    pulse_delay:
        Time for a pulse to complete: the weighted diameter of the overlay
        (a lower bound on it with ``diameter_method="double-sweep"``).
    total_cost:
        ``communication_per_pulse · pulses + pulse_delay · pulses`` for the
        requested number of pulses (a simple combined objective used for
        ranking overlays).
    settles:
        Vertices settled computing the pulse delay (the overlay bench's
        ``overlay_sync_settles`` operation count).
    """

    overlay_name: str
    messages_per_pulse: int
    communication_per_pulse: float
    pulse_delay: float
    total_cost: float
    settles: int = 0

    def as_row(self) -> dict[str, float]:
        """Return the cost breakdown as a flat dictionary (one table row)."""
        return {
            "messages_per_pulse": float(self.messages_per_pulse),
            "communication_per_pulse": self.communication_per_pulse,
            "pulse_delay": self.pulse_delay,
            "total_cost": self.total_cost,
        }


def synchronizer_cost(
    overlay: WeightedGraph,
    *,
    name: str = "overlay",
    pulses: int = 1,
    diameter_method: str = "exact",
) -> SynchronizerCost:
    """Compute the per-pulse synchronizer cost of running α on ``overlay``."""
    if pulses < 1:
        raise ValueError("pulses must be at least 1")
    if diameter_method not in ("exact", "double-sweep"):
        raise ValueError(
            f"unknown diameter method {diameter_method!r}; use 'exact' or 'double-sweep'"
        )
    messages = 2 * overlay.number_of_edges
    communication = 2.0 * overlay.total_weight()
    indexed = indexed_overlay(overlay)
    if diameter_method == "exact":
        delay, settles = indexed_weighted_diameter(indexed)
    else:
        delay, settles = indexed_double_sweep_diameter(indexed)
    return SynchronizerCost(
        overlay_name=name,
        messages_per_pulse=messages,
        communication_per_pulse=communication,
        pulse_delay=delay,
        total_cost=pulses * (communication + delay),
        settles=settles,
    )
