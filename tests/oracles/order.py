"""The canonical examination order as one ``sorted`` call with a string key.

Algorithm 1 examines edges by ``(weight, repr(u), repr(v))``; ``sorted`` is
stable, so edges whose keys are equal keep their input order.  ``src/``
computes this order from per-vertex ``repr`` ranks with one
``numpy.lexsort`` (:func:`repro.graph.weighted_graph.canonical_order`),
both in ``WeightedGraph.edges_sorted_by_weight`` and in the metric stream;
the order-identity tests compare both against this seed form.
"""

from __future__ import annotations

from typing import Hashable, Iterable

Triple = tuple[Hashable, Hashable, float]


def pair_sort_key(triple: Triple) -> tuple[float, str, str]:
    """The key ``(weight, repr(u), repr(v))`` of one ``(u, v, weight)`` triple."""
    u, v, weight = triple
    return (weight, repr(u), repr(v))


def canonical_sorted(edges: Iterable[Triple]) -> list[Triple]:
    """``edges`` in the greedy examination order, ties in input order."""
    return sorted(edges, key=pair_sort_key)
