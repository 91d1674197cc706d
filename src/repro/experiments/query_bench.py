"""Query-throughput benchmark: the batched multi-source engine vs per-query heapq.

The construction matrix (:mod:`repro.experiments.build_bench`) gates how fast
the spanner is *built*; this matrix gates how fast it is *queried*.  Both
strategies answer the same deterministic batch of ``(source, target)``
distance queries on one shared workload instance:

* ``per-query-heapq`` — :func:`repro.core.query_engine.reference_queries_ids`:
  one fresh C-``heapq`` Dijkstra per query, fresh dict state each time.  This
  is the seed idiom every caller used before the engine existed, and the
  denominator of the gated ``query_speedup``.
* ``batched-engine`` — :meth:`repro.core.query_engine.QueryEngine.run_queries_ids`:
  queries grouped by source, one C-``heapq`` Dijkstra per distinct source,
  early-stopped when its last target settles.

Every strategy must return the *exact same* distance list — the
``queries_match`` cross-check flag that ``scripts/check_bench_regression.py``
fails on — and the deterministic ``query_settles`` counter is diffed against
the committed baseline in ``benchmarks/BENCH_queries.json`` exactly like the
build trajectory.  Rows marked ``gate_query_speedup`` additionally hold
``query_speedup`` to the 3× bar of :data:`SPEC` (``repro bench queries``).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import Sequence

from repro.experiments.bench import BenchSpec, Gate, Preset, key_parser

#: Strategy order is execution order; the speedup ratio assumes it.
DEFAULT_STRATEGIES = (
    "per-query-heapq",
    "batched-engine",
)


def query_workload(
    n: int = 2000,
    degree: float = 8.0,
    seed: int = 3,
    queries: int = 256,
    sources: int = 16,
    query_seed: int = 11,
) -> dict[str, object]:
    """A bucketed geometric graph plus a deterministic query batch.

    ``sources`` bounds the number of distinct query sources: batching pays
    off exactly when queries share sources, so the source-pool size is the
    knob that moves the engine between "one SSSP amortized over many
    targets" and "no reuse at all".
    """
    return {
        "kind": "query-bucketed",
        "n": int(n),
        "degree": float(degree),
        "seed": int(seed),
        "queries": int(queries),
        "sources": int(sources),
        "query_seed": int(query_seed),
    }


def workload_key(workload: dict[str, object]) -> str:
    """Stable run key joining baseline and fresh runs of one workload."""
    return "queries-bucketed-n{}-d{}-seed{}-q{}-s{}-qs{}".format(
        int(workload["n"]), float(workload["degree"]), int(workload["seed"]),
        int(workload["queries"]), int(workload["sources"]),
        int(workload["query_seed"]),
    )


def _query_presets() -> dict[str, Preset]:
    """The named rows of the query matrix, all gated on ``query_speedup``.

    The ``n = 2000`` row is CI-sized and gated — the 3× bar is enforced on
    every push, not just offline.  The larger rows are the committed scale
    evidence (regenerate offline; the per-query baseline alone costs minutes
    at ``n = 10⁵``).
    """
    rows: tuple[tuple[dict[str, object], bool], ...] = (
        (query_workload(n=2000, degree=8.0, queries=512, sources=8), True),
        (query_workload(n=20000, degree=6.0, queries=1024, sources=32), True),
        (query_workload(n=100000, degree=6.0, queries=2048, sources=64), True),
    )
    return {workload_key(w): Preset(w, DEFAULT_STRATEGIES, gated) for w, gated in rows}


def _build_instance(workload: dict[str, object]):
    """Instantiate the workload graph as an :class:`IndexedGraph`."""
    from repro.graph.generators import bucketed_geometric_graph
    from repro.graph.indexed_graph import IndexedGraph

    n = int(workload["n"])
    radius = math.sqrt(float(workload["degree"]) / (math.pi * max(1, n)))
    graph = bucketed_geometric_graph(n, radius, seed=int(workload["seed"]))
    return IndexedGraph.from_weighted_graph(graph), graph.number_of_edges


def draw_queries(workload: dict[str, object]) -> tuple[list[int], list[int]]:
    """Draw the deterministic ``(sources, targets)`` id batch for a workload.

    Sources cycle through a fixed pool sampled without replacement; targets
    are drawn uniformly.  Everything is a pure function of ``query_seed``,
    ``n``, ``queries`` and ``sources`` so baseline and fresh runs answer the
    identical batch.
    """
    n = int(workload["n"])
    count = int(workload["queries"])
    pool_size = min(int(workload["sources"]), n)
    rng = random.Random(int(workload["query_seed"]))
    pool = rng.sample(range(n), pool_size)
    sources = [pool[i % pool_size] for i in range(count)]
    targets = [rng.randrange(n) for _ in range(count)]
    return sources, targets


def skewed_batches(n: int) -> list[tuple[list[int], list[int]]]:
    """Perfbench's ``query-batches`` traffic on ``range(n)`` as id batches.

    40 cycles from ``random.Random(7)``; each cycle is one 128-pair batch
    whose sources follow a Zipf law (exponent 1.8) over a seeded
    permutation of the vertices, with uniform targets, then two one-source
    queries from a uniform source to 8 uniform targets.  The draws are made
    in perfbench's order, so the stream has its mix of hot, mid-rank and
    one-off sources.  The query profile replays it, and
    ``tests/core/test_pinned_counters.py`` pins the engine's counters on it.
    """
    rng = random.Random(7)
    vertices = range(n)
    popularity = list(vertices)
    rng.shuffle(popularity)
    cumulative = list(itertools.accumulate((rank + 1) ** -1.8 for rank in vertices))
    batches = []
    for _ in range(40):
        sources = rng.choices(popularity, cum_weights=cumulative, k=128)
        batches.append((sources, rng.choices(vertices, k=128)))
        for _ in range(2):
            batches.append(([rng.choice(vertices)] * 8, rng.choices(vertices, k=8)))
    return batches


def run_query_bench(
    workload: dict[str, object],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> dict[str, object]:
    """Answer the workload's query batch once per strategy; returns one run record.

    The record mirrors the build bench shape (``"strategies"`` keyed by name)
    so :func:`scripts.check_bench_regression.find_regressions` gates both
    trajectories with the same code.
    """
    from repro.core.query_engine import QueryEngine, reference_queries_ids

    indexed, edge_count = _build_instance(workload)
    sources, targets = draw_queries(workload)

    records: dict[str, dict[str, float]] = {}
    answers: dict[str, list[float]] = {}
    for name in strategies:
        record: dict[str, float]
        if name == "per-query-heapq":
            start = time.perf_counter()
            distances, settles = reference_queries_ids(indexed, sources, targets)
            seconds = time.perf_counter() - start
            record = {"query_settles": float(settles)}
        elif name == "batched-engine":
            engine = QueryEngine(indexed)
            start = time.perf_counter()
            distances = engine.run_queries_ids(sources, targets)
            seconds = time.perf_counter() - start
            counters = engine.counters()
            record = {
                "query_settles": float(counters["engine_settles"]),
                "engine_sources": float(counters["engine_sources"]),
            }
        else:
            raise ValueError(f"unknown query strategy {name!r}")
        record["query_seconds"] = seconds
        record["queries_per_sec"] = len(sources) / seconds if seconds > 0 else 0.0
        records[name] = record
        answers[name] = distances

    result: dict[str, object] = {
        "workload": dict(workload),
        "strategies": records,
        "n": indexed.number_of_vertices,
        "edges": float(edge_count),
        "queries": float(len(sources)),
        "sources": float(len(set(sources))),
    }
    if len(answers) > 1:
        reference = next(iter(answers.values()))
        # Exact comparison is intentional: both paths settle in the same
        # total (dist, vertex) order, so the floats must agree bit for bit.
        result["queries_match"] = all(found == reference for found in answers.values())
    if "per-query-heapq" in records and "batched-engine" in records:
        engine_seconds = records["batched-engine"]["query_seconds"]
        if engine_seconds > 0:
            result["query_speedup"] = (
                records["per-query-heapq"]["query_seconds"] / engine_seconds
            )
    return result


SPEC = BenchSpec(
    name="queries",
    description=(
        "Batched query-throughput benchmark trajectory (per-strategy "
        "wall-clock + deterministic settle counters); see "
        "docs/PERFORMANCE.md. Regenerate with `repro bench queries`."
    ),
    label="strategy",
    run=run_query_bench,
    workload_key=workload_key,
    parse_key=key_parser(
        workload_key,
        (
            "queries-bucketed-n{n}-d{degree}-seed{seed}-q{queries}-s{sources}-qs{query_seed}",
            query_workload,
        ),
    ),
    presets=_query_presets(),
    counters=("query_settles", "engine_sources"),
    flags=("queries_match",),
    gate=Gate("gate_query_speedup", "query_speedup", "min", 3.0),
    strategy_names=DEFAULT_STRATEGIES,
)
