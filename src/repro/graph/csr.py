"""Compressed-sparse-row (CSR) adjacency: the array-native graph substrate.

:class:`~repro.graph.indexed_graph.IndexedGraph` stores adjacency as Python
list-of-lists — the right structure for amortized O(1) edge appends and for
the scalar search loops.  :class:`CSRAdjacency` is the *finalized* form of
the same graph: three flat numpy arrays that can cross a process boundary
without pickling:

* ``indptr``  — ``int64[n + 1]``, vertex ``v``'s neighbours live at
  ``indices[indptr[v]:indptr[v + 1]]``,
* ``indices`` — ``int64[2m]``, neighbour ids of each directed half-edge,
* ``weights`` — ``float64[2m]``, the parallel weight of each half-edge,

(each vertex's slice preserving the exact adjacency *order* of the list
representation).

CSR views are immutable snapshots: :meth:`IndexedGraph.finalize` caches one
and invalidates it on any mutation.  The parallel spanner builder
(:mod:`repro.core.parallel_greedy`) takes one per construction band and
publishes its three arrays to worker processes through one
:class:`multiprocessing.shared_memory.SharedMemory` block —
:func:`share_csr` / :func:`attach_csr` — so each construction band ships a
~16-byte descriptor per task instead of pickling O(m) arrays.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

import numpy as np


class CSRAdjacency:
    """Immutable flat-array adjacency view of an undirected weighted graph."""

    __slots__ = ("n", "indptr", "indices", "weights", "_shm")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        shm=None,
    ) -> None:
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._shm = shm  # keeps a shared-memory backing buffer alive, if any

    @classmethod
    def from_adjacency_lists(
        cls,
        neighbour_ids: list[list[int]],
        neighbour_weights: list[list[float]],
    ) -> "CSRAdjacency":
        """Pack parallel list-of-lists adjacency into CSR arrays.

        Per-vertex neighbour order is preserved verbatim: slice ``v`` of
        ``indices`` / ``weights`` is exactly ``neighbour_ids[v]`` /
        ``neighbour_weights[v]``.
        """
        n = len(neighbour_ids)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(
                np.fromiter((len(nbrs) for nbrs in neighbour_ids), np.int64, count=n),
                out=indptr[1:],
            )
        nnz = int(indptr[-1])
        indices = np.fromiter(chain.from_iterable(neighbour_ids), np.int64, count=nnz)
        weights = np.fromiter(
            chain.from_iterable(neighbour_weights), np.float64, count=nnz
        )
        return cls(n, indptr, indices, weights)

    @property
    def nnz(self) -> int:
        """The number of stored half-edges (``2m`` for an undirected graph)."""
        return int(self.indices.shape[0])

    def neighbours(self, vid: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the ``(ids, weights)`` slice views of vertex ``vid``."""
        start, end = self.indptr[vid], self.indptr[vid + 1]
        return self.indices[start:end], self.weights[start:end]

    def close_shared(self) -> None:
        """Detach from a shared-memory backing buffer, if this view has one."""
        if self._shm is not None:
            self.indptr = self.indices = self.weights = None  # drop buffer views
            self._shm.close()
            self._shm = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRAdjacency(n={self.n}, nnz={self.nnz})"


class SharedCSRDescriptor(NamedTuple):
    """Picklable handle to a CSR snapshot published in shared memory."""

    name: str
    n: int
    nnz: int


def _layout(n: int, nnz: int) -> tuple[int, int, int]:
    """Byte offsets of (indices, weights) plus total size for a shared block."""
    indptr_bytes = (n + 1) * 8
    indices_bytes = nnz * 8
    return indptr_bytes, indptr_bytes + indices_bytes, indptr_bytes + 2 * nnz * 8


def share_csr(csr: CSRAdjacency):
    """Copy ``csr`` into a fresh shared-memory block.

    Returns ``(shm, descriptor)``: the caller owns ``shm`` and must
    ``close()`` + ``unlink()`` it once every worker has finished the band;
    the descriptor is what gets pickled into worker task payloads.
    """
    from multiprocessing import shared_memory

    indices_off, weights_off, total = _layout(csr.n, csr.nnz)
    shm = shared_memory.SharedMemory(create=True, size=max(1, total))
    buf = shm.buf
    np.ndarray(csr.n + 1, dtype=np.int64, buffer=buf)[:] = csr.indptr
    np.ndarray(csr.nnz, dtype=np.int64, buffer=buf, offset=indices_off)[:] = csr.indices
    np.ndarray(csr.nnz, dtype=np.float64, buffer=buf, offset=weights_off)[:] = csr.weights
    return shm, SharedCSRDescriptor(name=shm.name, n=csr.n, nnz=csr.nnz)


def attach_csr(descriptor: SharedCSRDescriptor) -> CSRAdjacency:
    """Attach to a published CSR snapshot by descriptor (worker side).

    The returned view holds the mapping open; call
    :meth:`CSRAdjacency.close_shared` when a newer snapshot supersedes it.
    The parent keeps ownership of the block's lifetime: it unlinks after the
    band completes.  Workers are forked, so they share the parent's
    resource-tracker process and their attach is a no-op re-registration —
    no extra unregister needed (one would double-remove and make the tracker
    log KeyErrors).
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=descriptor.name)
    indices_off, weights_off, _ = _layout(descriptor.n, descriptor.nnz)
    buf = shm.buf
    indptr = np.ndarray(descriptor.n + 1, dtype=np.int64, buffer=buf)
    indices = np.ndarray(descriptor.nnz, dtype=np.int64, buffer=buf, offset=indices_off)
    weights = np.ndarray(
        descriptor.nnz, dtype=np.float64, buffer=buf, offset=weights_off
    )
    return CSRAdjacency(descriptor.n, indptr, indices, weights, shm=shm)
