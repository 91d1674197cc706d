"""Compressed-sparse-row (CSR) adjacency: the array-native graph substrate.

:class:`~repro.graph.indexed_graph.IndexedGraph` stores adjacency as Python
list-of-lists — the right structure for amortized O(1) edge appends and for
the scalar search loops.  :class:`CSRAdjacency` is the *finalized* form of
the same graph: three flat numpy arrays:

* ``indptr``  — ``int64[n + 1]``, vertex ``v``'s neighbours live at
  ``indices[indptr[v]:indptr[v + 1]]``,
* ``indices`` — ``int64[2m]``, neighbour ids of each directed half-edge,
* ``weights`` — ``float64[2m]``, the parallel weight of each half-edge,

(each vertex's slice preserving the exact adjacency *order* of the list
representation).

CSR views are immutable snapshots: :meth:`IndexedGraph.finalize` caches one
and invalidates it on any mutation.  The band spanner builder
(:mod:`repro.core.parallel_greedy`) takes one per construction band and
bulk-converts it into weight-sorted adjacency rows for its filter kernel.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


class CSRAdjacency:
    """Immutable flat-array adjacency view of an undirected weighted graph."""

    __slots__ = ("n", "indptr", "indices", "weights")

    def __init__(
        self, n: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRAdjacency(n={self.n}, nnz={self.nnz})"
