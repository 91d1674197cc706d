"""Workload kinds: the one description of what a bench, a job or the CLI builds.

A workload is a plain dict, ``{"kind": kind, **fields}``, e.g.
``{"kind": "geometric", "n": 300, "radius": 0.12, "seed": 7, "stretch": 1.5}``.
It is what a bench row runs, what a service job builds (and its artifact
key hashes) and what ``repro service submit`` writes.  Each kind is one
graph family the paper's claims are made for: general weighted graphs
(``geometric``, ``bucketed-geometric``, ``erdos-renyi``, and
``query-bucketed``, a bucketed graph plus a query batch) or point sets of a
doubling metric (``uniform-``, ``clustered-`` and ``grid-euclidean``).  It
is one :data:`KINDS` entry holding

* its run key template, e.g. ``"geometric-n{n}-r{radius}-seed{seed}-t{stretch}"``;
* its fields in workload order, each with its default, whose type (``int``
  or ``float``) is the field's type;
* its generator.

Everything else is derived from that table: :func:`workload` builds the
dict, :func:`workload_key` names it (the key the regression checker joins
baseline and fresh runs on), :func:`parse_key` inverts the key and
:func:`build_instance` generates the instance.  An unknown kind, or a
description without a field of its kind, raises
:class:`~repro.errors.UnknownWorkloadError`.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from repro.errors import GraphError, UnknownWorkloadError
from repro.graph.generators import (
    bucketed_geometric_graph,
    random_connected_graph,
    random_geometric_graph,
)
from repro.metric.closure import MetricClosure
from repro.metric.generators import clustered_points, grid_points, uniform_points

if TYPE_CHECKING:
    from repro.graph.weighted_graph import WeightedGraph


class Kind(NamedTuple):
    """One workload kind: its key template, its fields and its generator."""

    template: str
    #: Field -> default, in workload order; the default's type is the field's.
    fields: Mapping[str, int | float]
    #: The instance of the fields (cast to their types): a graph, or the
    #: lazy :class:`MetricClosure` of a point set.
    build: Callable[[dict], WeightedGraph]


def bucketed_radius(n: int, degree: float) -> float:
    """The radius with expected degree ``degree`` at ``n`` points: ``π·r²·n = degree``.

    Raises :class:`GraphError` unless ``degree > 0`` (NaN included), before
    the square root could fail on it.
    """
    if not degree > 0.0:
        raise GraphError(f"degree must be positive, got {degree}")
    return math.sqrt(degree / (math.pi * max(1, n)))


def _bucketed(fields: dict) -> WeightedGraph:
    """A geometric graph pinned by average degree, on the O(n + m) cell grid."""
    radius = bucketed_radius(fields["n"], fields["degree"])
    return bucketed_geometric_graph(fields["n"], radius, seed=fields["seed"])


#: The bucketed graph's part of a key; a query batch rides on the same graph.
_BUCKETED_KEY = "bucketed-n{n}-d{degree}-seed{seed}"

KINDS: dict[str, Kind] = {
    "geometric": Kind(
        "geometric-n{n}-r{radius}-seed{seed}-t{stretch}",
        {"n": 300, "radius": 0.12, "seed": 7, "stretch": 1.5},
        lambda f: random_geometric_graph(f["n"], f["radius"], seed=f["seed"]),
    ),
    "bucketed-geometric": Kind(
        _BUCKETED_KEY + "-t{stretch}",
        {"n": 20000, "degree": 96.0, "seed": 3, "stretch": 2.0},
        _bucketed,
    ),
    # ``sources`` bounds the distinct query sources: batching pays off
    # exactly when queries share sources.
    "query-bucketed": Kind(
        "queries-" + _BUCKETED_KEY + "-q{queries}-s{sources}-qs{query_seed}",
        {"n": 2000, "degree": 8.0, "seed": 3, "queries": 256, "sources": 16, "query_seed": 11},
        _bucketed,
    ),
    "erdos-renyi": Kind(
        "erdos-renyi-n{n}-p{p}-seed{seed}-t{stretch}",
        {"n": 200, "p": 0.1, "seed": 7, "stretch": 2.0},
        lambda f: random_connected_graph(f["n"], f["p"], seed=f["seed"]),
    ),
    "uniform-euclidean": Kind(
        "uniform-euclidean-n{n}-d{dim}-seed{seed}-t{stretch}",
        {"n": 400, "dim": 2, "seed": 7, "stretch": 2.0},
        lambda f: MetricClosure(uniform_points(f["n"], f["dim"], seed=f["seed"])),
    ),
    "clustered-euclidean": Kind(
        "clustered-euclidean-n{n}-d{dim}-c{clusters}-seed{seed}-t{stretch}",
        {"n": 10000, "dim": 2, "clusters": 50, "seed": 7, "stretch": 1.5},
        lambda f: MetricClosure(
            clustered_points(f["n"], f["dim"], clusters=f["clusters"], seed=f["seed"])
        ),
    ),
    # ``side**dim`` points: maximal weight ties.
    "grid-euclidean": Kind(
        "grid-euclidean-s{side}-d{dim}-t{stretch}",
        {"side": 100, "dim": 2, "stretch": 1.5},
        lambda f: MetricClosure(grid_points(f["side"], f["dim"])),
    ),
}

#: Each template as a pattern with one named group per field.
_PATTERNS = {
    kind: re.compile(re.sub(r"\{(\w+)\}", r"(?P<\1>.+?)", entry.template))
    for kind, entry in KINDS.items()
}


def _entry(kind: object) -> Kind:
    entry = KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise UnknownWorkloadError(
            f"unknown workload kind {kind!r}; known kinds: {', '.join(KINDS)}"
        )
    return entry


def workload(kind: str, **fields: object) -> dict[str, object]:
    """The workload dict of ``kind``: ``fields`` over its defaults, cast to their types."""
    defaults = _entry(kind).fields
    unknown = sorted(set(fields) - set(defaults))
    if unknown:
        raise UnknownWorkloadError(f"a {kind} workload has no field {', '.join(unknown)}")
    _, cast = _fields({"kind": kind, **defaults, **fields})
    return {"kind": kind, **cast}


def _fields(description: Mapping[str, object]) -> tuple[Kind, dict[str, object]]:
    """A description's kind and its fields cast to their types (others ignored)."""
    kind = description.get("kind")
    entry = _entry(kind)
    missing = [name for name in entry.fields if name not in description]
    if missing:
        raise UnknownWorkloadError(f"a {kind} workload needs {', '.join(missing)}")
    cast = {name: type(default)(description[name]) for name, default in entry.fields.items()}
    return entry, cast


def workload_key(description: Mapping[str, object]) -> str:
    """The stable run key of a workload, e.g. ``"uniform-euclidean-n400-d2-seed7-t2.0"``.

    Fields are cast first, so ``stretch=2`` and ``stretch=2.0`` share a key.
    """
    entry, fields = _fields(description)
    return entry.template.format(**fields)


def parse_key(key: str, kinds: Sequence[str]) -> dict[str, object]:
    """The workload of ``key``, a key of one of ``kinds``: the inverse of
    :func:`workload_key`.

    Only keys that round-trip parse, so ``t2`` is rejected where the key
    is ``t2.0``; anything else raises :class:`UnknownWorkloadError`.
    """
    for kind in kinds:
        match = _PATTERNS[kind].fullmatch(key)
        if match is None:
            continue
        try:
            parsed = workload(kind, **match.groupdict())
        except ValueError:
            continue
        if workload_key(parsed) == key:
            return parsed
    raise UnknownWorkloadError(key)


def build_instance(description: Mapping[str, object]) -> WeightedGraph:
    """Generate a workload: a :class:`WeightedGraph`, or for a point-set kind
    the lazy :class:`MetricClosure` of its metric (``.metric``).

    Fields outside the kind (a verify row's ``builder``) are ignored.
    """
    entry, fields = _fields(description)
    return entry.build(fields)
