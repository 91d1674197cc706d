"""The shared event queue of the distributed engines.

:class:`EventQueue` is the ``(time, sequence, *payload)`` heap that
:mod:`repro.distributed.engine` and :mod:`repro.distributed.resilient`
replay their message events through.  The auto-incremented sequence makes
the order total, so simultaneous events replay in creation order and every
chaos replay is reproducible tie for tie; :meth:`EventQueue.drop` consumes
a sequence number *without* pushing, so lost messages still advance the
replay clock (the property the chaos replay tests pin down).
"""

from __future__ import annotations

import heapq
from typing import Any


class EventQueue:
    """The shared ``(time, sequence, *payload)`` heap of the distributed engines.

    Four hand-rolled copies of the same idiom used to live in
    :mod:`repro.distributed.resilient` and :mod:`repro.distributed.engine`:
    push ``(time, sequence) + payload`` and bump the sequence so
    simultaneous events replay in creation order, making the event order
    total and every chaos replay tie-for-tie reproducible.  This class is
    that idiom, once.  :meth:`drop` advances the sequence *without*
    pushing — a lost message must still consume its sequence number or the
    replay timeline of every later event would shift.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def sequence(self) -> int:
        """The next sequence number to be consumed."""
        return self._sequence

    def push(self, time: float, *payload: Any) -> None:
        """Enqueue ``(time, sequence, *payload)`` and advance the sequence."""
        heapq.heappush(self._heap, (time, self._sequence) + payload)
        self._sequence += 1

    def drop(self) -> None:
        """Consume a sequence number without enqueuing anything."""
        self._sequence += 1

    def pop(self) -> tuple:
        """Dequeue and return the earliest ``(time, sequence, *payload)``."""
        return heapq.heappop(self._heap)
