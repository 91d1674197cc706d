"""Serialization and interoperability helpers for weighted graphs.

Experiments occasionally want to persist a workload to disk (so a benchmark
can be re-run on the identical instance) or hand a graph to :mod:`networkx`
for cross-validation.  Both directions are provided here; the core algorithms
never depend on networkx, and it is imported only inside the two converters,
so the library (service and CLI included) imports without it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import GraphError
from repro.graph.weighted_graph import WeightedGraph

if TYPE_CHECKING:
    import networkx as nx


def atomic_write_text(
    path: str | Path, text: str, *, encoding: str = "utf-8", exclusive: bool = False
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary; a crash mid-write leaves the old
    file untouched and at worst an orphaned ``.tmp`` sibling, never a
    truncated or interleaved destination.  Every committed artifact in the
    repository (bench trajectories, job records, cache manifests) goes
    through here so an interrupted run can never corrupt a baseline.
    ``exclusive=True`` links instead (``os.link``): :class:`FileExistsError`
    if ``path`` exists, never an overwrite.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if exclusive:
            os.link(tmp_name, path)
            os.unlink(tmp_name)
        else:
            os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: str | Path,
    document: Any,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
    exclusive: bool = False,
) -> None:
    """Serialise ``document`` as JSON and write it atomically to ``path``.

    The single write path of every ``BENCH_*.json`` emitter and of the
    service layer's job/manifest records: readers always observe either the
    previous complete document or the new complete document.
    """
    text = json.dumps(document, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text, exclusive=exclusive)


def to_edge_list(graph: WeightedGraph) -> list[tuple[Any, Any, float]]:
    """Return the graph as a sorted ``(u, v, weight)`` edge list plus isolated vertices.

    Only edges are returned; callers that must preserve isolated vertices
    should use :func:`to_dict` instead.
    """
    return graph.edges_sorted_by_weight()


def to_dict(graph: WeightedGraph) -> dict[str, Any]:
    """Return a JSON-serialisable dictionary representation of the graph.

    Vertices are stored via ``repr`` strings when they are not JSON-native;
    integer and string vertices round-trip exactly through :func:`from_dict`.
    """
    vertices = list(graph.vertices())
    json_safe = all(isinstance(v, (int, str)) for v in vertices)
    if not json_safe:
        raise GraphError(
            "to_dict only supports int or str vertices; "
            "relabel the graph before serialising"
        )
    return {
        "vertices": vertices,
        "edges": [[u, v, weight] for u, v, weight in graph.edges_sorted_by_weight()],
    }


def from_dict(data: dict[str, Any]) -> WeightedGraph:
    """Reconstruct a graph from the dictionary produced by :func:`to_dict`."""
    graph = WeightedGraph(vertices=data.get("vertices", []))
    for u, v, weight in data.get("edges", []):
        graph.add_edge(u, v, weight)
    return graph


def save_json(graph: WeightedGraph, path: str | Path) -> None:
    """Write the graph to ``path`` as JSON (atomically)."""
    atomic_write_text(path, json.dumps(to_dict(graph)))


def load_json(path: str | Path) -> WeightedGraph:
    """Read a graph previously written by :func:`save_json`."""
    return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def to_networkx(graph: WeightedGraph) -> nx.Graph:
    """Convert to a :class:`networkx.Graph` with a ``weight`` edge attribute."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_weighted_edges_from(graph.edges())
    return nx_graph


def from_networkx(nx_graph: nx.Graph, *, default_weight: float = 1.0) -> WeightedGraph:
    """Convert from a :class:`networkx.Graph`.

    Missing ``weight`` attributes default to ``default_weight``.  Directed or
    multi-graphs are rejected.
    """
    if nx_graph.is_directed() or nx_graph.is_multigraph():
        raise GraphError("only simple undirected networkx graphs are supported")
    graph = WeightedGraph(vertices=nx_graph.nodes())
    for u, v, data in nx_graph.edges(data=True):
        graph.add_edge(u, v, data.get("weight", default_weight))
    return graph


def relabel_to_integers(graph: WeightedGraph) -> tuple[WeightedGraph, dict[Any, int]]:
    """Return a copy with vertices relabelled ``0 .. n-1`` plus the mapping used."""
    mapping = {vertex: index for index, vertex in enumerate(graph.vertices())}
    relabelled = WeightedGraph(vertices=range(len(mapping)))
    for u, v, weight in graph.edges():
        relabelled.add_edge(mapping[u], mapping[v], weight)
    return relabelled, mapping
