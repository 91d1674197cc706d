"""Hypothesis property suite for :class:`repro.graph.heap.EventQueue`.

The distributed engines replay message events through one shared queue.
The chaos replays rely on its sequence-number law: events pop in the total
``(time, sequence)`` order, and :meth:`~EventQueue.drop` consumes a
sequence number without enqueuing.  The tests pin that law on dyadic
tie-heavy event times, where equal times collide and only the sequence
number decides the pop order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph.heap import EventQueue

#: Exactly-representable dyadic keys: maximal ties, no float rounding noise.
TIE_HEAVY_KEYS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


# ---------------------------------------------------------------------------
# EventQueue: total (time, sequence) order and the drop law
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.sampled_from(TIE_HEAVY_KEYS), st.booleans()), max_size=40
    )
)
def test_event_queue_replay_order(events):
    """Pops drain in ``(time, sequence)`` order; ``drop`` burns a sequence slot.

    ``drop`` must consume a sequence number without enqueuing — the replay
    law that keeps lost-message timelines aligned with the reference
    simulator's.  The model assigns the same sequence numbers by hand.
    """
    queue = EventQueue()
    model: list[tuple[float, int, str]] = []
    sequence = 0
    for time, dropped in events:
        if dropped:
            queue.drop()
        else:
            queue.push(time, f"payload-{sequence}")
            model.append((time, sequence, f"payload-{sequence}"))
        sequence += 1
    assert queue.sequence == sequence
    assert len(queue) == len(model)
    drained = [queue.pop() for _ in range(len(queue))]
    assert drained == sorted(model)
