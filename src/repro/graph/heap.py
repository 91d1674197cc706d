"""The shared event queue of the distributed engines.

:class:`EventQueue` is the ``(time, sequence, *payload)`` heap that
:mod:`repro.distributed.engine` replays its message events through.  The
auto-incremented sequence makes the order total, so simultaneous events
replay in creation order and every replay is reproducible tie for tie.
"""

from __future__ import annotations

import heapq
from typing import Any


class EventQueue:
    """The shared ``(time, sequence, *payload)`` heap of the distributed engines.

    Push ``(time, sequence) + payload`` and bump the sequence so
    simultaneous events replay in creation order, making the event order
    total and every replay tie-for-tie reproducible.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, *payload: Any) -> None:
        """Enqueue ``(time, sequence, *payload)`` and advance the sequence."""
        heapq.heappush(self._heap, (time, self._sequence) + payload)
        self._sequence += 1

    def pop(self) -> tuple:
        """Dequeue and return the earliest ``(time, sequence, *payload)``."""
        return heapq.heappop(self._heap)
