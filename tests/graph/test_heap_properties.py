"""Hypothesis property suite for :class:`repro.graph.heap.EventQueue`.

The distributed engines replay message events through one shared queue.
Events pop in the total ``(time, sequence)`` order; the tests pin that on
dyadic tie-heavy event times, where equal times collide and only the
sequence number decides the pop order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph.heap import EventQueue

#: Exactly-representable dyadic keys: maximal ties, no float rounding noise.
TIE_HEAVY_KEYS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


# ---------------------------------------------------------------------------
# EventQueue: total (time, sequence) order
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(events=st.lists(st.sampled_from(TIE_HEAVY_KEYS), max_size=40))
def test_event_queue_replay_order(events):
    """Pops drain in ``(time, sequence)`` order: ties pop in push order."""
    queue = EventQueue()
    model: list[tuple[float, int, str]] = []
    for sequence, time in enumerate(events):
        queue.push(time, f"payload-{sequence}")
        model.append((time, sequence, f"payload-{sequence}"))
    assert len(queue) == len(model)
    drained = [queue.pop() for _ in range(len(queue))]
    assert drained == sorted(model)
