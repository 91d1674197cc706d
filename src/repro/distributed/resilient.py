"""Hardened broadcast under faults: ack/timeout/retry with exponential backoff.

The plain flood of :mod:`repro.distributed.broadcast` assumes every message
arrives; under a :class:`~repro.distributed.faults.FaultPlan` it silently
strands every subtree behind a dropped message.  This module hardens the
protocol so delivery completes under loss:

* every DATA transmission expects an ACK from the receiver;
* the sender arms a timer per transmission — ``timeout_scale · 2w`` for the
  first attempt, multiplied by ``backoff`` per retry (exponential backoff);
* an unacked timer resends (a fresh drop coin per attempt — see
  :meth:`FaultPlan.drops`) up to ``max_attempts`` times, then gives up
  (the link is presumed dead: failed edge or crashed receiver);
* duplicate DATA receipts are re-acked (the first ACK may have been lost)
  but not re-forwarded.

Retry, duplicate, timer and give-up counters are surfaced alongside the
classic message/cost/completion statistics.

The protocol runs on flat integer-id arrays.  The seed engine on the dict
graph with vertex objects lives on as the oracle in
``tests/oracles/distributed.py``, and both replay the *same* fault schedule
tie for tie: events pop in ``(time, send_sequence)`` order, sequences are
assigned in the same order because the indexed adjacency mirrors
``overlay.incident()`` order, and every drop/delay decision is a pure
function of canonical vertex labels (:mod:`repro.distributed.faults`), so
statistics, delivery times and flood trees match exactly — the property
tests in ``tests/distributed/test_faults.py`` assert byte identity.

The echo convergecast is hardened as pure accounting over the flood tree
(the fault-free idiom of :func:`repro.distributed.engine.echo_convergecast`):
each tree ack retries with the same backoff law until it survives its edge,
its receiver and its drop coin, or gives up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.distributed.engine import indexed_overlay
from repro.distributed.faults import FaultPlan
from repro.graph.heap import EventQueue
from repro.graph.weighted_graph import Vertex, WeightedGraph

_DATA = "data"
_ACK = "ack"
_TIMER = "timer"


@dataclass(frozen=True)
class ResilientParams:
    """Tuning knobs of the hardened protocol.

    ``max_attempts`` bounds retransmissions per directed link;
    the ``attempt``-th retransmission times out after
    ``timeout_scale · 2w · backoff^attempt`` (``2w`` is the lossless
    round-trip on an edge of weight ``w``; ``timeout_scale > 1`` absorbs
    delay jitter; exponential backoff keeps give-up checks cheap on links
    that are genuinely dead).
    """

    max_attempts: int = 12
    timeout_scale: float = 1.5
    backoff: float = 2.0


@dataclass
class ResilientStatistics:
    """Flat counters of one hardened flood."""

    messages: int = 0  #: every transmission: DATA (all attempts) + ACKs
    data_sends: int = 0
    retries: int = 0  #: DATA retransmissions (attempt > 0)
    acks: int = 0
    duplicates: int = 0  #: DATA receipts at an already-delivered vertex
    timers_fired: int = 0
    give_ups: int = 0  #: links abandoned after ``max_attempts`` unacked sends
    messages_lost: int = 0  #: transmissions consumed by the fault plan
    events: int = 0
    cost: float = 0.0
    completion_time: float = 0.0

    def as_row(self) -> dict[str, float]:
        """The counters as one flat table row (all floats)."""
        return {
            "messages": float(self.messages),
            "cost": self.cost,
            "completion": self.completion_time,
            "data_sends": float(self.data_sends),
            "retries": float(self.retries),
            "acks": float(self.acks),
            "duplicates": float(self.duplicates),
            "timers": float(self.timers_fired),
            "give_ups": float(self.give_ups),
            "lost": float(self.messages_lost),
            "events": float(self.events),
        }


@dataclass
class ResilientResult:
    """Outcome of one hardened flood: statistics plus the delivery tree."""

    statistics: ResilientStatistics
    delivery_time: dict[Vertex, float]
    parent: dict[Vertex, Optional[Vertex]]

    @property
    def reached(self) -> int:
        return len(self.delivery_time)

    def as_row(self) -> dict[str, float]:
        row = self.statistics.as_row()
        row["reached"] = float(self.reached)
        row["max_delay"] = max(self.delivery_time.values(), default=0.0)
        return row


def resilient_flood(
    overlay: WeightedGraph,
    source: Vertex,
    plan: FaultPlan,
    *,
    params: Optional[ResilientParams] = None,
) -> ResilientResult:
    """Flood from ``source`` under ``plan`` with ack/timeout/retry hardening.

    The result replays the seed engine's tie for tie (see the module
    docstring); with an empty plan the delivery tree coincides with the plain
    flood's (every first DATA attempt survives, so first-delivery races
    resolve exactly as in :func:`~repro.distributed.engine.indexed_flood`).
    Plan lookups go through precomputed per-id tables (crash times, directed
    fail times) except the per-message hash coins, which must see the
    canonical vertex labels and therefore go through the interned label
    list.
    """
    if params is None:
        params = ResilientParams()
    indexed = indexed_overlay(overlay)
    neighbour_ids, neighbour_weights = indexed.adjacency_arrays()
    n = indexed.number_of_vertices
    labels = [indexed.vertex_of(i) for i in range(n)]

    crash_time = [math.inf] * n
    for vertex, time in plan.node_crash_time.items():
        crash_time[indexed.id_of(vertex)] = time
    fail_time: dict[int, float] = {}
    for (u, v), time in plan.edge_fail_time.items():
        ui, vi = indexed.id_of(u), indexed.id_of(v)
        fail_time[ui * n + vi] = time
        fail_time[vi * n + ui] = time
    inf = math.inf

    stats = ResilientStatistics()
    delivery = [inf] * n
    parent = [-1] * n
    source_id = indexed.id_of(source)
    delivery[source_id] = 0.0
    attempts: dict[int, int] = {}
    acked: set[int] = set()

    events_queue = EventQueue()

    def send_data(u: int, v: int, weight: float, attempt: int, now: float) -> None:
        stats.messages += 1
        stats.data_sends += 1
        stats.cost += weight
        if attempt > 0:
            stats.retries += 1
        arrival = now + weight + plan.extra_delay(labels[u], labels[v], weight, _DATA, attempt)
        lost = (
            now >= fail_time.get(u * n + v, inf)
            or arrival >= crash_time[v]
            or plan.drops(labels[u], labels[v], _DATA, attempt)
        )
        if lost:
            stats.messages_lost += 1
            events_queue.drop()
        else:
            events_queue.push(arrival, _DATA, u, v, attempt)
        timeout = now + params.timeout_scale * 2.0 * weight * params.backoff**attempt
        events_queue.push(timeout, _TIMER, u, v, attempt)

    def send_ack(v: int, u: int, attempt: int, now: float) -> None:
        weight = indexed.weight_ids(v, u)
        stats.messages += 1
        stats.acks += 1
        stats.cost += weight
        arrival = now + weight + plan.extra_delay(labels[v], labels[u], weight, _ACK, attempt)
        lost = (
            now >= fail_time.get(v * n + u, inf)
            or arrival >= crash_time[u]
            or plan.drops(labels[v], labels[u], _ACK, attempt)
        )
        if lost:
            stats.messages_lost += 1
            events_queue.drop()
        else:
            events_queue.push(arrival, _ACK, v, u, attempt)

    def start_links(vertex: int, exclude: int, now: float) -> None:
        for neighbour, weight in zip(neighbour_ids[vertex], neighbour_weights[vertex]):
            if neighbour != exclude:
                attempts[vertex * n + neighbour] = 1
                send_data(vertex, neighbour, weight, 0, now)

    start_links(source_id, -1, 0.0)

    now = 0.0
    while len(events_queue):
        now, _, kind, a, b, attempt = events_queue.pop()
        stats.events += 1
        if kind == _DATA:
            if delivery[b] != inf:
                stats.duplicates += 1
                send_ack(b, a, attempt, now)
                continue
            delivery[b] = now
            parent[b] = a
            send_ack(b, a, attempt, now)
            start_links(b, a, now)
        elif kind == _ACK:
            acked.add(b * n + a)
        else:
            stats.timers_fired += 1
            link = a * n + b
            if link in acked or now >= crash_time[a]:
                continue
            sent = attempts[link]
            if sent < params.max_attempts:
                attempts[link] = sent + 1
                send_data(a, b, indexed.weight_ids(a, b), sent, now)
            else:
                stats.give_ups += 1

    stats.completion_time = now
    delivery_time = {
        labels[vid]: time for vid, time in enumerate(delivery) if time != inf
    }
    tree = {
        labels[vid]: (labels[parent[vid]] if parent[vid] >= 0 else None)
        for vid in range(n)
        if delivery[vid] != inf
    }
    return ResilientResult(statistics=stats, delivery_time=delivery_time, parent=tree)


@dataclass(frozen=True)
class ResilientEchoResult:
    """Accounting of the hardened echo convergecast over a flood tree."""

    messages: int
    cost: float
    retries: int
    give_ups: int
    completion_time: float

    def as_row(self) -> dict[str, float]:
        return {
            "echo_messages": float(self.messages),
            "echo_cost": self.cost,
            "echo_retries": float(self.retries),
            "echo_give_ups": float(self.give_ups),
            "echo_completion": self.completion_time,
        }


def resilient_echo(
    overlay: WeightedGraph,
    source: Vertex,
    result: ResilientResult,
    plan: FaultPlan,
    *,
    params: Optional[ResilientParams] = None,
) -> ResilientEchoResult:
    """Ack every delivery back up the flood tree, retrying through faults.

    Pure bottom-up accounting over the flood tree: each
    non-source reached vertex sends its ack up its first-delivery parent
    edge once itself and all its tree children are ready; the ``attempt``-th
    try departs after the same backoff law as DATA retries and succeeds iff
    the edge is alive at departure, the parent alive at arrival, and the
    ``"echo"`` drop coin spares it.  An ack that exhausts ``max_attempts``
    is a give-up: its subtree's completion never reaches the source.
    """
    if params is None:
        params = ResilientParams()
    delivery = result.delivery_time
    parent = result.parent
    ready = dict(delivery)
    messages = 0
    cost = 0.0
    retries = 0
    give_ups = 0
    # Children always deliver strictly later than their parent (positive
    # weights), so decreasing delivery time visits each subtree bottom-up;
    # repr breaks delivery-time ties deterministically.
    for v in sorted(delivery, key=lambda v: (-delivery[v], repr(v))):
        up = parent[v]
        if up is None:
            continue
        weight = overlay.weight(v, up)
        departure = ready[v]
        arrival = None
        for attempt in range(params.max_attempts):
            messages += 1
            cost += weight
            if attempt > 0:
                retries += 1
            survives = (
                plan.edge_alive(v, up, departure)
                and plan.node_alive(up, departure + weight)
                and not plan.drops(v, up, "echo", attempt)
            )
            if survives:
                arrival = departure + weight
                break
            departure = (
                departure
                + params.timeout_scale * 2.0 * weight * params.backoff**attempt
            )
        if arrival is None:
            give_ups += 1
        elif arrival > ready[up]:
            ready[up] = arrival
    completion = ready.get(source, 0.0)
    return ResilientEchoResult(
        messages=messages,
        cost=cost,
        retries=retries,
        give_ups=give_ups,
        completion_time=completion,
    )


def delivery_report(
    overlay: WeightedGraph,
    source: Vertex,
    plan: FaultPlan,
    result: ResilientResult,
) -> dict[str, float]:
    """Delivery-guarantee accounting of one hardened flood.

    ``surviving_reachable`` is the conservative must-deliver set (see
    :meth:`FaultPlan.surviving_reachable`); ``delivery_complete`` is the
    hardening guarantee the bench gates on: every vertex in that set was
    reached.  ``delivery_rate`` is reached / must-deliver (≥ 1.0 when the
    guarantee holds — messages can also slip through before faults bite).
    """
    must_deliver = plan.surviving_reachable(overlay, source)
    reached = set(result.delivery_time)
    missed = must_deliver - reached
    rate = len(reached) / len(must_deliver) if must_deliver else 1.0
    return {
        "surviving_reachable": float(len(must_deliver)),
        "reached": float(len(reached)),
        "missed": float(len(missed)),
        "delivery_rate": rate,
        "delivery_complete": 1.0 if not missed else 0.0,
    }
