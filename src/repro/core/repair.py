"""Self-healing repair of greedy spanners: patch, don't rebuild.

When edges of the base graph fail, the greedy ``t``-spanner of the surviving
graph can be recovered *without* re-running greedy from scratch.  The key is
an exchange-free replay argument on the canonical examination order
``(weight, repr(u), repr(v))`` of Algorithm 1:

**Repair equals rebuild.**  Let ``F`` be the failed edges and ``p`` the
canonical position of the first failed edge that was *in* the spanner ``H``
(if no failed edge was in ``H``, repair is a no-op — see below).  For every
position before ``p``, greedy on ``G − F`` makes exactly the decision greedy
on ``G`` made:

* a failed edge that greedy had **rejected** contributes nothing — a
  rejected edge never entered ``H``, so removing it from the stream leaves
  the evolving ``H`` at every later position unchanged;
* every surviving edge before ``p`` therefore faces the identical ``H`` and
  the identical verdict ``δ_H(u, v) > t·w``.

So greedy(``G − F``) restricted to positions ``< p`` produces exactly the
kept prefix ``{e ∈ H : pos(e) < p}``, and replaying greedy over the
surviving suffix (positions ``≥ p``, failed edges filtered out) with ``H``
warm-started to that prefix reproduces greedy(``G − F``) **bit for bit** —
:func:`repair_spanner` cross-checks exactly that against a full
rebuild when asked, and the property tests in ``tests/core/test_repair.py``
assert it on tie-heavy weights.

The no-op case is the same argument with ``p = ∞``: if every failed edge was
rejected, greedy(``G − F``) **is** greedy(``G``).

The savings are the skipped prefix.  Greedy's cost is dominated by the
cutoff-ball searches, whose size grows steeply with edge weight (radius
``t·w``); when failures concentrate in the heaviest weight band, the kept
prefix holds most of the settles.  ``tests/core/test_pinned_counters.py``
pins one such repair (the 10 heaviest spanner edges of the bucketed
``n = 400`` row fail): 8,074 repair settles against 13,160 for the
rebuild.  On the ``t = 1.2`` spanner of a geometric ``n = 10⁴`` graph
(radius 0.025, seed 7), with the heaviest 2 % of its 28,575 edges failed,
repair measured 4.52× fewer settles than a rebuild with the
default ``cached`` oracle (119,929 against 542,602) and 5.97× with
``bounded``, whose per-edge searches carry no cross-query cache.

The repaired spanner is re-certified against the surviving base with the
:class:`~repro.spanners.verification.VerificationEngine` batch checker, so
every repair returns a *verified* ``t``-spanner, not a trusted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.spanner import Spanner
from repro.errors import EdgeNotFoundError, UnrepairableSpannerError
from repro.graph.weighted_graph import Vertex, WeightedGraph

#: Algorithms whose spanners admit replay-based repair (canonical-order greedy
#: over a materialized edge set; metric closures have no edges to fail).
_REPAIRABLE_ALGORITHMS = ("greedy", "greedy-repair")


def _canonical_pair(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    """Order an undirected pair by ``repr`` (membership key, orientation-free)."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass
class RepairResult:
    """Outcome of one self-healing repair.

    Attributes
    ----------
    spanner:
        The repaired greedy ``t``-spanner of the surviving base graph
        (``algorithm="greedy-repair"``; its ``base`` *is* the surviving
        graph, so downstream lightness/verification sees the right
        denominator).
    failed_edges, failed_spanner_edges:
        How many distinct failed edges the base actually contained, and how
        many of those were in the spanner (only these force a replay).
    kept_edges, replayed_edges, edges_added:
        Spanner edges kept from the prefix, surviving candidate edges
        re-examined in the suffix replay, and how many of those were added.
    repair_settles, repair_queries:
        Dijkstra settles / distance queries of the replay — the cost the
        ≥5× repair-vs-rebuild gate compares against a full rebuild.
    verified, verify_settles:
        Re-certification outcome (every base edge of the surviving graph
        checked within stretch) and its settle count.
    rebuild_settles, matches_rebuild:
        Filled by ``cross_check=True``: the full rebuild's settles
        and whether its edge set is bit-identical to the repair's.
    """

    spanner: Spanner
    failed_edges: int
    failed_spanner_edges: int
    kept_edges: int
    replayed_edges: int
    edges_added: int
    repair_settles: float
    repair_queries: float
    verified: bool
    verify_settles: float
    rebuild_settles: Optional[float] = None
    matches_rebuild: Optional[bool] = None

    def counters(self) -> dict[str, float]:
        """The deterministic operation counts the bench trajectory records."""
        row = {
            "failed_edges": float(self.failed_edges),
            "failed_spanner_edges": float(self.failed_spanner_edges),
            "kept_edges": float(self.kept_edges),
            "replayed_edges": float(self.replayed_edges),
            "repair_edges_added": float(self.edges_added),
            "repair_settles": self.repair_settles,
            "repair_queries": self.repair_queries,
            "verify_settles": self.verify_settles,
        }
        if self.rebuild_settles is not None:
            row["rebuild_settles"] = self.rebuild_settles
        return row


def surviving_base(base: WeightedGraph, failed: set[tuple[Vertex, Vertex]]) -> WeightedGraph:
    """The base graph minus the failed edges, vertex order preserved.

    Preserving vertex order (via ``empty_spanning_subgraph``) keeps the
    canonical edge stream of the surviving graph orientation-identical to a
    filtered view of the original stream, which is what lets repair and
    rebuild consume literally the same triples.
    """
    surviving = base.empty_spanning_subgraph()
    for u, v, weight in base.edges():
        if _canonical_pair(u, v) not in failed:
            surviving.add_edge(u, v, weight)
    return surviving


def repair_spanner(
    spanner: Spanner,
    failed_edges: Iterable[tuple[Vertex, Vertex]],
    *,
    oracle: str = "cached",
    verify: bool = True,
    cross_check: bool = False,
) -> RepairResult:
    """Patch ``spanner`` around ``failed_edges`` by replaying the greedy suffix.

    ``failed_edges`` are undirected ``(u, v)`` pairs that must exist in the
    spanner's base graph (:class:`~repro.errors.EdgeNotFoundError`
    otherwise); duplicates and either orientation are accepted.  Only
    greedy-built spanners over materialized graphs are repairable
    (:class:`~repro.errors.UnrepairableSpannerError` otherwise) — the replay
    equivalence is a property of Algorithm 1's canonical order.

    With ``verify=True`` (default) the repaired spanner is re-certified
    edge-by-edge against the surviving base; ``cross_check=True``
    additionally runs the full rebuild and records whether the edge
    sets are bit-identical (they must be — that is the module invariant).
    """
    from repro.core.greedy import greedy_spanner

    if spanner.algorithm not in _REPAIRABLE_ALGORITHMS:
        raise UnrepairableSpannerError(
            f"cannot repair a {spanner.algorithm!r} spanner: replay-based repair "
            f"is defined only for greedy spanners over materialized graphs"
        )
    base = spanner.base
    failed: set[tuple[Vertex, Vertex]] = set()
    for u, v in failed_edges:
        if not base.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        failed.add(_canonical_pair(u, v))

    subgraph = spanner.subgraph
    failed_in_spanner = sum(
        1 for u, v in failed if subgraph.has_edge(u, v)
    )
    survivor = surviving_base(base, failed)

    if failed_in_spanner == 0:
        # Every failed edge had been rejected; greedy(G − F) is greedy(G)
        # verbatim, so the spanner itself survives — just rebase it.
        repaired = Spanner(
            base=survivor,
            subgraph=subgraph.copy(),
            stretch=spanner.stretch,
            algorithm="greedy-repair",
            metadata={
                "edges_seeded": float(subgraph.number_of_edges),
                "edges_examined": 0.0,
                "edges_added": 0.0,
                "distance_queries": 0.0,
                "dijkstra_settles": 0.0,
            },
        )
        result = RepairResult(
            spanner=repaired,
            failed_edges=len(failed),
            failed_spanner_edges=0,
            kept_edges=subgraph.number_of_edges,
            replayed_edges=0,
            edges_added=0,
            repair_settles=0.0,
            repair_queries=0.0,
            verified=False,
            verify_settles=0.0,
        )
    else:
        stream = base.edges_sorted_by_weight()
        split = next(
            index
            for index, (u, v, _) in enumerate(stream)
            if _canonical_pair(u, v) in failed and subgraph.has_edge(u, v)
        )
        prefix = [
            (u, v, w) for u, v, w in stream[:split] if subgraph.has_edge(u, v)
        ]
        suffix = [
            (u, v, w)
            for u, v, w in stream[split:]
            if _canonical_pair(u, v) not in failed
        ]
        replayed = greedy_spanner(
            survivor, spanner.stretch, oracle=oracle, edges=suffix, seed_edges=prefix
        )
        replayed.algorithm = "greedy-repair"
        result = RepairResult(
            spanner=replayed,
            failed_edges=len(failed),
            failed_spanner_edges=failed_in_spanner,
            kept_edges=len(prefix),
            replayed_edges=len(suffix),
            edges_added=int(replayed.metadata["edges_added"]),
            repair_settles=replayed.metadata["dijkstra_settles"],
            repair_queries=replayed.metadata["distance_queries"],
            verified=False,
            verify_settles=0.0,
        )

    if verify:
        from repro.spanners.verification import verify_spanner_edges_detailed

        verification = verify_spanner_edges_detailed(
            result.spanner.subgraph, survivor, spanner.stretch
        )
        result.verified = verification.ok
        result.verify_settles = float(verification.settles)

    if cross_check:
        rebuilt = greedy_spanner(survivor, spanner.stretch, oracle=oracle)
        result.rebuild_settles = rebuilt.metadata["dijkstra_settles"]
        result.matches_rebuild = result.spanner.subgraph.same_edges(rebuilt.subgraph)

    return result
