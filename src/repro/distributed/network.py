"""A synchronous message-passing network simulator.

Section 1.1 of the paper motivates light, sparse, low-degree spanners with
their role in distributed computing: "light and sparse spanners are
particularly useful for efficient broadcast protocols in the message-passing
model, where efficiency is measured with respect to both the total
communication cost (corresponding to the spanner's size and weight) and the
speed of message delivery at all destinations (corresponding to the
spanner's stretch)".

This module provides the substrate for experiment E7: a synchronous
round-based simulator over a weighted overlay graph where

* sending a message over an edge costs the edge's weight (communication
  cost), and
* the message arrives after a delay equal to the edge's weight (delivery
  time), rounded up to the simulator's tick resolution.

The simulator is deliberately simple — the paper only needs the two aggregate
measures above — but it is a genuine event-driven simulation: messages are
queued with their arrival times and processed in time order, so protocols
that react to received messages (broadcast, echo, synchronizer pulses) can be
expressed naturally.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import VertexNotFoundError
from repro.graph.weighted_graph import Vertex, WeightedGraph


@dataclass(frozen=True)
class Message:
    """A message in flight.

    Attributes
    ----------
    sender, receiver:
        Endpoints of the overlay edge the message travels on.
    payload:
        Arbitrary protocol payload.
    send_time, arrival_time:
        Simulation times of emission and delivery.
    cost:
        Communication cost charged for this message (the edge weight).
    """

    sender: Vertex
    receiver: Vertex
    payload: object
    send_time: float
    arrival_time: float
    cost: float


@dataclass
class NetworkStatistics:
    """Aggregate measures of a finished simulation run."""

    messages_sent: int = 0
    total_communication_cost: float = 0.0
    completion_time: float = 0.0
    rounds_processed: int = 0

    def as_row(self) -> dict[str, float]:
        """Return the statistics as a flat dictionary (one table row)."""
        return {
            "messages": float(self.messages_sent),
            "communication_cost": self.total_communication_cost,
            "completion_time": self.completion_time,
            "events": float(self.rounds_processed),
        }


# A protocol handler receives (network, vertex, message) and may send more messages.
Handler = Callable[["Network", Vertex, Message], None]


class Network:
    """An event-driven simulation of message passing over a weighted overlay.

    Parameters
    ----------
    overlay:
        The overlay graph; messages may only be sent along its edges.
    handler:
        Callback invoked for every delivered message; it implements the
        protocol logic and may call :meth:`send` to emit further messages.
    """

    def __init__(self, overlay: WeightedGraph, handler: Handler) -> None:
        self.overlay = overlay
        self.handler = handler
        self.now = 0.0
        self.statistics = NetworkStatistics()
        self.state: dict[Vertex, dict[str, object]] = {
            vertex: {} for vertex in overlay.vertices()
        }
        self._queue: list[tuple[float, int, Message]] = []
        self._counter = itertools.count()

    def send(self, sender: Vertex, receiver: Vertex, payload: object) -> Message:
        """Send ``payload`` from ``sender`` to ``receiver`` along an overlay edge.

        The message costs the edge weight and arrives after a delay equal to
        the edge weight.  Raises if the edge is not in the overlay.
        """
        if not self.overlay.has_vertex(sender):
            raise VertexNotFoundError(sender)
        weight = self.overlay.weight(sender, receiver)
        message = Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            send_time=self.now,
            arrival_time=self.now + weight,
            cost=weight,
        )
        self.statistics.messages_sent += 1
        self.statistics.total_communication_cost += weight
        heapq.heappush(self._queue, (message.arrival_time, next(self._counter), message))
        return message

    def broadcast_from(self, vertex: Vertex, payload: object) -> None:
        """Send ``payload`` from ``vertex`` to all its overlay neighbours."""
        for neighbour in self.overlay.neighbours(vertex):
            self.send(vertex, neighbour, payload)

    def run(self, *, max_events: Optional[int] = None) -> NetworkStatistics:
        """Deliver queued messages in time order until the queue drains.

        ``max_events`` guards against runaway protocols; the default is
        ``50 · n²`` deliveries.
        """
        n = self.overlay.number_of_vertices
        limit = max_events if max_events is not None else 50 * max(n, 1) ** 2
        events = 0
        while self._queue:
            if events >= limit:
                raise RuntimeError(
                    f"simulation exceeded {limit} events; protocol may not terminate"
                )
            arrival_time, _, message = heapq.heappop(self._queue)
            self.now = arrival_time
            self.handler(self, message.receiver, message)
            events += 1
        self.statistics.completion_time = self.now
        self.statistics.rounds_processed = events
        return self.statistics
