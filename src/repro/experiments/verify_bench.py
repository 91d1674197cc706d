"""Verification benchmark matrix: the perf trajectory behind ``repro bench verify``.

The build benches measure *construction*; this bench measures the *quality
checks* — exact edge verification and the exact stretch profile — end to
end on the batch verification engine of :mod:`repro.spanners.verification`.

One run takes a workload, builds one spanner with a registry builder
(:mod:`repro.spanners.registry`), and runs both checks once on one engine:
one cutoff-bounded search per distinct edge source (a lockstep block of
sources on metric bases), one full indexed SSSP per profile source,
vectorized ratio reduction, optionally sharded across worker processes
(``--workers``).

The record holds wall-clock seconds plus the deterministic
``verify_settles`` / ``profile_settles`` operation counts that
``scripts/check_bench_regression.py`` diffs against the committed baseline
in ``benchmarks/BENCH_verify.json`` (machine-independent, noise-free).  The
engine's agreement with the seed per-pair reference (identical verdicts,
bit-identical profile floats) is a tier-1 test on the CI rows
(``tests/experiments/test_verify_bench.py``).  The committed rows still
carry ``sampled_seconds`` / ``sampled_ok`` from the deleted sampled spot
check until that file is re-emitted; fresh rows have neither.

Large rows (``n = 10⁴``) keep edge verification exact over every base edge,
while the profile sweeps a deterministic evenly-strided source shard
(``profile_sources``, recorded in the run) — the same scale device as the
overlay bench's restricted routing destinations.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.spanner import Spanner
from repro.experiments.bench import BenchSpec, Preset, key_parser
from repro.experiments.oracle_bench import euclidean_workload
from repro.experiments.overlay_bench import (
    DEFAULT_BUILDER_PARAMS,
    SPEC as _OVERLAY_SPEC,
    _build_instance as _build_overlay_instance,
    geometric_workload,
    workload_key as _overlay_workload_key,
)
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.spanners.registry import build_spanner
from repro.spanners.verification import (
    VerificationEngine,
    stretch_profile,
    verify_spanner_edges_detailed,
)

#: The record keys the engine's counters under this label, as the committed
#: rows do.
ENGINE = "indexed"


def verify_workload(
    base: dict[str, object], builder: str = "greedy"
) -> dict[str, object]:
    """Attach the registry ``builder`` to a bench workload description."""
    workload = dict(base)
    workload["builder"] = str(builder)
    return workload


def _without_builder(workload: dict[str, object]) -> dict[str, object]:
    return {key: value for key, value in workload.items() if key != "builder"}


def workload_key(workload: dict[str, object]) -> str:
    """Stable run key: the overlay workload key plus the builder suffix.

    Delegating to :func:`repro.experiments.overlay_bench.workload_key` keeps
    the key format in one place — a silent divergence would make the
    regression checker join fresh runs against nothing.
    """
    return f"{_overlay_workload_key(_without_builder(workload))}-b{workload['builder']}"


def _build_instance(
    workload: dict[str, object],
) -> tuple[WeightedGraph, Optional[FiniteMetric]]:
    return _build_overlay_instance(_without_builder(workload))


def _build_presets() -> dict[str, Preset]:
    """The named rows of the verification matrix.

    ``profile_sources`` rides along as a run option.  The first two rows
    are CI-sized (a tier-1 test cross-checks them against the seed per-pair
    reference); the scale rows profile an evenly-strided source shard.
    """
    rows: tuple[tuple[dict[str, object], Optional[int]], ...] = (
        (verify_workload(geometric_workload(n=300), "greedy"), None),
        (verify_workload(euclidean_workload(n=150, stretch=1.5), "theta"), None),
        (verify_workload(euclidean_workload(n=2000, stretch=1.5), "theta"), 256),
        # Baswana–Sen's pinned k=2 yields a 3-spanner, so the scale row
        # verifies against t=3 (the guarantee it actually makes).
        (
            verify_workload(
                geometric_workload(n=10000, radius=0.025, stretch=3.0), "baswana-sen"
            ),
            64,
        ),
    )
    return {
        workload_key(workload): Preset(workload, extra={"profile_sources": sources})
        for workload, sources in rows
    }


def profile_source_vertices(
    base: WeightedGraph, profile_sources: Optional[int]
) -> Optional[list[object]]:
    """Return the deterministic evenly-strided source shard, or ``None`` for all.

    Sources are taken at a fixed stride over the shared-id order (the
    ``base.vertices()`` order), so the shard — and therefore every profile
    float and counter derived from it — is a pure function of the workload.
    """
    if profile_sources is None:
        return None
    vertices = list(base.vertices())
    count = min(int(profile_sources), len(vertices))
    if count <= 0:
        return []
    stride = max(1, len(vertices) // count)
    return vertices[::stride][:count]


def run_verify_bench(
    workload: dict[str, object],
    *,
    workers: Optional[int] = None,
    profile_sources: Optional[int] = None,
) -> dict[str, object]:
    """Run edge verification + exact profile; returns one run record.

    The record mirrors the oracle/overlay bench shape (``"strategies"``
    holding the engine's counters under :data:`ENGINE`) so
    :func:`scripts.check_bench_regression.find_regressions` gates all
    trajectories with the same code.  The checks share one
    :class:`VerificationEngine`, which is the engine's intended amortization
    (translate once, verify many).
    """
    graph, metric = _build_instance(workload)
    stretch = float(workload["stretch"])
    builder = str(workload.get("builder", "greedy"))
    params = dict(DEFAULT_BUILDER_PARAMS.get(builder, {}))

    build_start = time.perf_counter()
    spanner: Spanner = build_spanner(
        builder, metric if metric is not None else graph, stretch, **params
    )
    build_seconds = time.perf_counter() - build_start

    sources = profile_source_vertices(spanner.base, profile_sources)
    engine = VerificationEngine(spanner.base, spanner.subgraph)

    start = time.perf_counter()
    verification = verify_spanner_edges_detailed(
        spanner.subgraph, spanner.base, stretch, workers=workers, engine=engine
    )
    verify_seconds = time.perf_counter() - start

    start = time.perf_counter()
    profile, profile_stats = stretch_profile(
        spanner, sources=sources, workers=workers, engine=engine
    )
    profile_seconds = time.perf_counter() - start

    record: dict[str, float] = {
        "verify_seconds": verify_seconds,
        "profile_seconds": profile_seconds,
        "verify_ok": float(verification.ok),
    }
    record.update(verification.counters())
    record.update(profile_stats.counters())
    record.update(profile.as_row())

    return {
        "workload": dict(workload),
        "strategies": {ENGINE: record},
        "n": graph.number_of_vertices,
        "build_seconds": build_seconds,
        "spanner_edges": float(spanner.number_of_edges),
        "workers": float(workers) if workers is not None else 1.0,
        "profile_source_count": float(len(sources)) if sources is not None else float(
            graph.number_of_vertices
        ),
    }


SPEC = BenchSpec(
    name="verify",
    description=(
        "Batch verification benchmark trajectory (exact edge checks / "
        "stretch profiles per engine mode); see docs/PERFORMANCE.md. "
        "Regenerate with `repro bench verify`."
    ),
    label="mode",
    run=run_verify_bench,
    workload_key=workload_key,
    parse_key=key_parser(
        workload_key,
        (
            "{base}-b{builder}",
            lambda base, builder: verify_workload(_OVERLAY_SPEC.parse_key(base), builder),
        ),
    ),
    presets=_build_presets(),
    counters=("verify_settles", "profile_settles"),
    run_options=frozenset({"workers"}),
)
