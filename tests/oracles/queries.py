"""The per-query reference search at the vertex level.

:func:`repro.core.query_engine.reference_queries_ids` runs one fresh
early-exit Dijkstra per query on vertex ids; :func:`reference_queries`
takes vertices (and a plain graph) instead.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.query_engine import reference_queries_ids
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.weighted_graph import Vertex, WeightedGraph


def reference_queries(
    graph: Union[IndexedGraph, WeightedGraph],
    sources: Sequence[Vertex],
    targets: Sequence[Vertex],
) -> tuple[list[float], int]:
    """Vertex-level wrapper of :func:`reference_queries_ids`."""
    if isinstance(graph, IndexedGraph):
        indexed = graph
    else:
        indexed = IndexedGraph.from_weighted_graph(graph)
    id_of = indexed.id_of
    return reference_queries_ids(
        indexed,
        [id_of(vertex) for vertex in sources],
        [id_of(vertex) for vertex in targets],
    )
