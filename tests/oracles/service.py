"""The canonical spanner edge list with ``repr`` called per edge endpoint.

:func:`repro.service.workers.canonical_spanner_edges` reprs each vertex once
and shares the string across the vertex's edges; this seed form calls
``repr`` four times per edge.  The two must return equal lists.
"""

from __future__ import annotations

from repro.core.spanner import Spanner


def canonical_spanner_edges(spanner: Spanner) -> list[list[object]]:
    """``[repr(a), repr(b), float(w)]`` per edge, ``repr(a) <= repr(b)``, sorted."""
    edges = []
    for u, v, weight in spanner.subgraph.edges():
        a, b = (u, v) if repr(u) <= repr(v) else (v, u)
        edges.append([repr(a), repr(b), float(weight)])
    edges.sort()
    return edges
