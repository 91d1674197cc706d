"""Int-indexed d-ary heap core: array-native priority queues with provable
tie-breaking.

Every hot search in the repo settles vertices in the order of a *total*
priority order: ``(dist, vertex)`` for the dense-id searches (vertex ids
are unique, so ties on ``dist`` are broken by id and never fall through to
an unstable comparison), and ``(key, insertion_counter)`` for the
dict-level reference paths (the counter is unique by construction).
Because the order is total, *any* correct priority queue that pops that
exact order — regardless of arity ``d`` or storage layout — reproduces the
seed ``heapq`` pop sequence element for element.  That is the entire
equivalence argument behind the ``mode="heap"`` search twins, and the
property suite in ``tests/graph/test_heap_properties.py`` exercises it on
dyadic tie-heavy weight streams where equal keys actually collide.

Three structures live here:

* :class:`DaryHeap` — a flat two-array d-ary heap over ``(key, item)``
  entries with lazy duplicates allowed, ordered exactly like the
  ``(dist, vertex)`` tuples the seed pushes through :mod:`heapq`.  The
  bidirectional search twin uses it because stale entries at the heap top
  participate in side selection there, so a decrease-key queue would *not*
  be bit-identical.
* :class:`IndexedDaryHeap` — the int-indexed decrease-key variant:
  preallocated to ``n``, position map for ``O(d log_d n)``
  :meth:`~IndexedDaryHeap.decrease`, and a generation stamp per slot so
  :meth:`~IndexedDaryHeap.clear` is O(1) — what lets the target-bounded
  and ball searches reuse one heap across many short searches without an
  O(n) reinitialisation sweep each.  Full searches (the query engine's)
  run faster on C :mod:`heapq` with lazy deletion.
* :class:`EventQueue` — the shared ``(time, sequence, *payload)`` event
  heap of the distributed engines.  The auto-incremented sequence makes
  the order total; :meth:`EventQueue.drop` consumes a sequence number
  *without* pushing, so lost messages still advance the replay clock
  tie-for-tie (the property the chaos replay tests pin down).

plus :func:`merge_sorted_runs`, a d-ary k-way merge whose output order is
identical to :func:`heapq.merge`: one live entry per run, ties between
runs broken toward the earlier run via the run index carried in the heap
entry.

Storage is plain Python lists, not numpy arrays: CPython scalar indexing
into a list is markedly faster than into an ndarray, and per-operation
costs dominate a priority queue.  The arity default of 4 keeps sift-down
comparisons per level small while halving tree height versus binary —
measurements in docs/PERFORMANCE.md.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator, Optional


class DaryHeap:
    """A d-ary min-heap over ``(key, item)`` entries, duplicates allowed.

    The order is the lexicographic order on ``(key, item)`` — exactly the
    tuple order the seed paths get from pushing ``(dist, vertex)`` through
    :mod:`heapq`.  Items must therefore be mutually comparable whenever
    their keys can tie; the searches use dense int vertex ids, which makes
    the order total.
    """

    __slots__ = ("arity", "_keys", "_items")

    def __init__(self, arity: int = 4) -> None:
        if arity < 2:
            raise ValueError(f"heap arity must be >= 2, got {arity}")
        self.arity = int(arity)
        self._keys: list[Any] = []
        self._items: list[Any] = []

    def __len__(self) -> int:
        return len(self._keys)

    def clear(self) -> None:
        """Drop every entry (O(1) amortised; storage is reused)."""
        del self._keys[:]
        del self._items[:]

    def peek(self) -> tuple[Any, Any]:
        """Return the minimum ``(key, item)`` without popping it."""
        return self._keys[0], self._items[0]

    def push(self, key: Any, item: Any) -> None:
        """Insert ``(key, item)``; duplicates of ``item`` are allowed."""
        keys = self._keys
        items = self._items
        d = self.arity
        i = len(keys)
        keys.append(key)
        items.append(item)
        while i > 0:
            parent = (i - 1) // d
            pk = keys[parent]
            if pk < key or (pk == key and items[parent] <= item):
                break
            keys[i] = pk
            items[i] = items[parent]
            i = parent
        keys[i] = key
        items[i] = item

    def pop(self) -> tuple[Any, Any]:
        """Remove and return the minimum ``(key, item)``."""
        keys = self._keys
        items = self._items
        top_key = keys[0]
        top_item = items[0]
        move_key = keys.pop()
        move_item = items.pop()
        size = len(keys)
        if size:
            d = self.arity
            i = 0
            while True:
                first = i * d + 1
                if first >= size:
                    break
                last = first + d
                if last > size:
                    last = size
                best_slot = first
                best_key = keys[first]
                best_item = items[first]
                for child in range(first + 1, last):
                    child_key = keys[child]
                    if child_key < best_key or (
                        child_key == best_key and items[child] < best_item
                    ):
                        best_slot = child
                        best_key = child_key
                        best_item = items[child]
                if best_key < move_key or (
                    best_key == move_key and best_item < move_item
                ):
                    keys[i] = best_key
                    items[i] = best_item
                    i = best_slot
                else:
                    break
            keys[i] = move_key
            items[i] = move_item
        return top_key, top_item


class IndexedDaryHeap:
    """Int-indexed d-ary min-heap with ``decrease`` and O(1) generational reset.

    Slots are the dense vertex ids ``0 .. capacity-1``; all storage (keys,
    heap order, position map, generation stamps) is preallocated once.  The
    order is ``(key, vertex_id)`` — key first, id tie-break — which is the
    same total order as the lazy ``(dist, vertex)`` tuples of the seed
    paths, so pop order coincides with the reference pop order for any
    arity (the tie-break argument in the module docstring).

    A slot is *seen* in the current generation once inserted; after
    :meth:`pop_min` it stays seen with ``position == -1`` (settled).
    :meth:`clear` bumps the generation counter, which unsees every slot at
    once — no O(n) sweep, the property the bounded and ball searches rely on.
    """

    __slots__ = (
        "arity",
        "capacity",
        "_key",
        "_heap",
        "_pos",
        "_stamp",
        "_generation",
        "_size",
    )

    def __init__(self, capacity: int, arity: int = 4) -> None:
        if capacity < 0:
            raise ValueError(f"heap capacity must be >= 0, got {capacity}")
        if arity < 2:
            raise ValueError(f"heap arity must be >= 2, got {arity}")
        self.arity = int(arity)
        self.capacity = int(capacity)
        self._key: list[float] = [0.0] * capacity
        self._heap: list[int] = [0] * capacity
        self._pos: list[int] = [-1] * capacity
        self._stamp: list[int] = [0] * capacity
        self._generation = 1
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def clear(self) -> None:
        """Unsee every slot in O(1) by advancing the generation stamp."""
        self._generation += 1
        self._size = 0

    @property
    def generation(self) -> int:
        """The current generation counter (advanced by :meth:`clear`)."""
        return self._generation

    def seen(self, vertex: int) -> bool:
        """True if ``vertex`` was inserted this generation (maybe settled)."""
        return self._stamp[vertex] == self._generation

    def in_heap(self, vertex: int) -> bool:
        """True if ``vertex`` is currently enqueued (seen and not popped)."""
        return self._stamp[vertex] == self._generation and self._pos[vertex] >= 0

    def key_of(self, vertex: int) -> float:
        """The current key of a seen vertex (its final key once popped)."""
        if self._stamp[vertex] != self._generation:
            raise KeyError(vertex)
        return self._key[vertex]

    def insert(self, vertex: int, key: float) -> None:
        """Enqueue an unseen ``vertex`` with ``key``.

        The caller guarantees the vertex is not already seen this
        generation; :meth:`relax` wraps the check for search loops.
        """
        keys = self._key
        heap_order = self._heap
        pos = self._pos
        d = self.arity
        i = self._size
        self._size = i + 1
        self._stamp[vertex] = self._generation
        keys[vertex] = key
        while i > 0:
            parent = (i - 1) // d
            pv = heap_order[parent]
            pk = keys[pv]
            if pk < key or (pk == key and pv < vertex):
                break
            heap_order[i] = pv
            pos[pv] = i
            i = parent
        heap_order[i] = vertex
        pos[vertex] = i

    def decrease(self, vertex: int, key: float) -> None:
        """Lower the key of an enqueued ``vertex`` to ``key`` and sift up.

        The caller guarantees ``vertex`` is in the heap and ``key`` is not
        greater than its current key under the ``(key, id)`` order.
        """
        keys = self._key
        heap_order = self._heap
        pos = self._pos
        d = self.arity
        keys[vertex] = key
        i = pos[vertex]
        while i > 0:
            parent = (i - 1) // d
            pv = heap_order[parent]
            pk = keys[pv]
            if pk < key or (pk == key and pv < vertex):
                break
            heap_order[i] = pv
            pos[pv] = i
            i = parent
        heap_order[i] = vertex
        pos[vertex] = i

    def relax(self, vertex: int, key: float) -> bool:
        """Insert-or-decrease: the Dijkstra relaxation step.

        Returns True when the vertex was inserted or its key improved;
        False when it is settled or its current key is already as good
        (strict ``<`` — equal keys are not churned).
        """
        if self._stamp[vertex] != self._generation:
            self.insert(vertex, key)
            return True
        if self._pos[vertex] >= 0 and key < self._key[vertex]:
            self.decrease(vertex, key)
            return True
        return False

    def pop_min(self) -> tuple[float, int]:
        """Remove and return the minimum ``(key, vertex)``; vertex settles."""
        keys = self._key
        heap_order = self._heap
        pos = self._pos
        d = self.arity
        size = self._size - 1
        self._size = size
        top = heap_order[0]
        top_key = keys[top]
        pos[top] = -1
        if size:
            move = heap_order[size]
            move_key = keys[move]
            i = 0
            while True:
                first = i * d + 1
                if first >= size:
                    break
                last = first + d
                if last > size:
                    last = size
                best_slot = first
                best = heap_order[first]
                best_key = keys[best]
                for child in range(first + 1, last):
                    cv = heap_order[child]
                    ck = keys[cv]
                    if ck < best_key or (ck == best_key and cv < best):
                        best_slot = child
                        best = cv
                        best_key = ck
                if best_key < move_key or (best_key == move_key and best < move):
                    heap_order[i] = best
                    pos[best] = i
                    i = best_slot
                else:
                    break
            heap_order[i] = move
            pos[move] = i
        return top_key, top


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


def merge_sorted_runs(
    runs: Iterable[Iterable[Any]],
    *,
    key: Optional[Any] = None,
    arity: int = 4,
) -> Iterator[Any]:
    """K-way merge of sorted runs, order-identical to :func:`heapq.merge`.

    The heap holds one live entry per run — ``(sort_key, run_index)`` — so
    equal keys pop in run order, which is exactly the stability contract of
    :func:`heapq.merge`: ties break toward the earlier iterable.  The
    streaming layer merges its spill runs through this with run index equal
    to generation order, preserving the documented stream order bit for bit.
    """
    heap = DaryHeap(arity=arity)
    iterators: list[Iterator[Any]] = []
    heads: list[Any] = []
    for run in runs:
        iterator = iter(run)
        try:
            value = next(iterator)
        except StopIteration:
            continue
        slot = len(iterators)
        iterators.append(iterator)
        heads.append(value)
        heap.push(value if key is None else key(value), slot)
    while len(heap):
        _, slot = heap.pop()
        value = heads[slot]
        yield value
        try:
            value = next(iterators[slot])
        except StopIteration:
            continue
        heads[slot] = value
        heap.push(value if key is None else key(value), slot)
