"""The spanner-builder registry: every construction behind one signature.

The paper compares the greedy spanner against "any other spanner
construction"; the codebase grew eight of them, each with its own calling
convention (``greedy_spanner(graph, t)``, ``theta_graph_spanner(metric,
cones)``, ``baswana_sen_spanner(graph, k)``, ...).  The registry normalises
them behind one uniform signature,

    build_spanner(name, workload, stretch, **params) -> Spanner

where ``workload`` is either a :class:`~repro.graph.weighted_graph.WeightedGraph`
or a :class:`~repro.metric.base.FiniteMetric` (a lazy
:class:`~repro.metric.closure.MetricClosure` counts as its underlying
metric), and ``stretch`` is the target stretch ``t`` from which each builder
derives its native parameter (cones for Θ/Yao, ``k`` for Baswana–Sen,
``ε = t - 1`` for the ``(1+ε)`` constructions).  Explicit ``**params``
override the derivation.

The CLI, the experiments and the distributed overlay layer consume *only*
this registry, so any registered construction can be dropped in as a
broadcast/routing/synchronizer overlay (``repro bench overlays --workloads
KEY --strategies theta,yao,mst``).  A builder asked for a workload kind it cannot span raises
:class:`~repro.errors.UnsupportedWorkloadError` — e.g. the planar Θ-graph on
a general graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.spanner import Spanner
from repro.errors import InvalidStretchError, UnsupportedWorkloadError
from repro.graph.weighted_graph import WeightedGraph
from repro.metric.base import FiniteMetric
from repro.metric.closure import MetricClosure
from repro.metric.euclidean import EuclideanMetric
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.bounded_degree import bounded_degree_spanner
from repro.spanners.theta_graph import cones_for_stretch, theta_graph_spanner
from repro.spanners.trivial import (
    complete_metric_spanner,
    identity_spanner,
    metric_mst_spanner,
    mst_spanner,
)
from repro.spanners.wspd import wspd_spanner
from repro.spanners.yao_graph import yao_cones_for_stretch, yao_graph_spanner

Workload = Union[WeightedGraph, FiniteMetric]

#: ``build(workload, stretch, **params)`` implementation of one construction.
BuildFunction = Callable[..., Spanner]


def as_metric(workload: Workload) -> Optional[FiniteMetric]:
    """Return the metric behind ``workload``, or ``None`` for a plain graph.

    A :class:`MetricClosure` *is* a ``WeightedGraph``, but it represents its
    metric — builders that want the point set unwrap it here, so callers can
    hand either form to the registry interchangeably.
    """
    if isinstance(workload, MetricClosure):
        return workload.metric
    if isinstance(workload, FiniteMetric):
        return workload
    return None


def as_graph(workload: Workload) -> WeightedGraph:
    """Return ``workload`` as a weighted graph (metrics as their lazy closure)."""
    if isinstance(workload, WeightedGraph):
        return workload
    return MetricClosure(workload)


def stretch_epsilon(stretch: float) -> float:
    """Map a target stretch ``t`` to the ``(1+ε)``-family slack ``ε ∈ (0, 1)``.

    Stretches of 2 and above are clamped just below 1 (the constructions
    require ``ε < 1``); the builder records the parameter it actually used.
    """
    return min(stretch - 1.0, 0.99)


def _slack_for(stretch: float, epsilon: Optional[float]) -> float:
    """The ``ε`` a ``(1+ε)``-family adapter builds with for ``stretch``.

    Defaults to :func:`stretch_epsilon`.  An explicit ``epsilon`` looser than
    the requested stretch (``ε > t - 1``) would return a spanner that fails
    stretch ``t``, so it raises :class:`InvalidStretchError` (written so NaN
    fails too).
    """
    if epsilon is None:
        return stretch_epsilon(stretch)
    if not epsilon <= stretch - 1.0:
        raise InvalidStretchError(
            f"epsilon {epsilon} is looser than the requested stretch {stretch} "
            f"(needs epsilon <= stretch - 1)"
        )
    return epsilon


def baswana_sen_k(stretch: float) -> int:
    """Largest ``k`` with ``2k - 1 ≤ stretch`` (the Baswana–Sen guarantee)."""
    return max(1, int(math.floor((stretch + 1.0) / 2.0)))


@dataclass(frozen=True)
class SpannerBuilder:
    """One registered spanner construction.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"theta"``.
    description:
        One-line human description used by ``repro list-builders``.
    domain:
        Human-readable statement of the supported workload kinds (quoted in
        :class:`UnsupportedWorkloadError` messages).
    supports:
        Predicate deciding whether a workload is in the builder's domain.
    build_fn:
        The adapter: ``build_fn(workload, stretch, **params) -> Spanner``,
        called only with supported workloads.
    """

    name: str
    description: str
    domain: str
    supports: Callable[[Workload], bool]
    build_fn: BuildFunction

    def build(self, workload: Workload, stretch: float, **params: object) -> Spanner:
        """Build a spanner of ``workload`` targeting ``stretch``."""
        if not self.supports(workload):
            raise UnsupportedWorkloadError(self.name, workload, self.domain)
        return self.build_fn(workload, stretch, **params)


_REGISTRY: dict[str, SpannerBuilder] = {}


def register_builder(builder: SpannerBuilder) -> SpannerBuilder:
    """Add a builder to the registry (overwriting any previous entry)."""
    _REGISTRY[builder.name] = builder
    return builder


def get_builder(name: str) -> SpannerBuilder:
    """Look up a builder by name; raises :class:`KeyError` with the valid names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown spanner builder {name!r}; valid names: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def list_builders(workload: Optional[Workload] = None) -> list[SpannerBuilder]:
    """Return all builders, optionally only those supporting ``workload``."""
    builders = sorted(_REGISTRY.values(), key=lambda b: b.name)
    if workload is None:
        return builders
    return [b for b in builders if b.supports(workload)]


def builder_names() -> list[str]:
    """Return the sorted registry keys."""
    return sorted(_REGISTRY)


def build_spanner(
    name: str, workload: Workload, stretch: float, **params: object
) -> Spanner:
    """Build a spanner with the named construction: the registry entry point."""
    return get_builder(name).build(workload, stretch, **params)


# ---------------------------------------------------------------------------
# Domain predicates
# ---------------------------------------------------------------------------
def _any_workload(workload: Workload) -> bool:
    return isinstance(workload, (WeightedGraph, FiniteMetric))


def _metric_only(workload: Workload) -> bool:
    return as_metric(workload) is not None


def _graph_only(workload: Workload) -> bool:
    return isinstance(workload, WeightedGraph) and not isinstance(workload, MetricClosure)


def _euclidean(workload: Workload) -> bool:
    return isinstance(as_metric(workload), EuclideanMetric)


def _euclidean_2d(workload: Workload) -> bool:
    metric = as_metric(workload)
    return isinstance(metric, EuclideanMetric) and metric.dimension == 2


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------
def _build_greedy(workload: Workload, stretch: float, *, oracle: str = "cached") -> Spanner:
    # Imported lazily: `repro.core.approximate_greedy` itself imports spanner
    # modules from this package at load time, so a module-level import here
    # would make the two packages' initialisation mutually recursive.
    from repro.core.greedy import greedy_spanner, greedy_spanner_of_metric

    metric = as_metric(workload)
    if metric is not None:
        return greedy_spanner_of_metric(metric, stretch, oracle=oracle)
    return greedy_spanner(workload, stretch, oracle=oracle)


def _build_greedy_parallel(workload: Workload, stretch: float, *, bands: int = 16) -> Spanner:
    from repro.core.parallel_greedy import (
        parallel_greedy_spanner,
        parallel_greedy_spanner_of_metric,
    )

    metric = as_metric(workload)
    if metric is not None:
        return parallel_greedy_spanner_of_metric(metric, stretch, bands=bands)
    return parallel_greedy_spanner(workload, stretch, bands=bands)


def _build_approx_greedy(
    workload: Workload,
    stretch: float,
    *,
    epsilon: Optional[float] = None,
    base: Optional[str] = None,
) -> Spanner:
    from repro.core.approximate_greedy import approximate_greedy_spanner

    metric = as_metric(workload)
    epsilon = _slack_for(stretch, epsilon)
    if base is None:
        base = (
            "theta"
            if isinstance(metric, EuclideanMetric) and metric.dimension == 2
            else "net-tree"
        )
    return approximate_greedy_spanner(metric, epsilon, base=base)


def _build_theta(workload: Workload, stretch: float, *, cones: Optional[int] = None) -> Spanner:
    metric = as_metric(workload)
    return theta_graph_spanner(metric, cones if cones is not None else cones_for_stretch(stretch))


def _build_yao(workload: Workload, stretch: float, *, cones: Optional[int] = None) -> Spanner:
    metric = as_metric(workload)
    return yao_graph_spanner(metric, cones if cones is not None else yao_cones_for_stretch(stretch))


def _build_wspd(workload: Workload, stretch: float) -> Spanner:
    return wspd_spanner(as_metric(workload), stretch)


def _build_baswana_sen(
    workload: Workload, stretch: float, *, k: Optional[int] = None, seed: Optional[int] = None
) -> Spanner:
    return baswana_sen_spanner(workload, k if k is not None else baswana_sen_k(stretch), seed=seed)


def _build_bounded_degree(
    workload: Workload, stretch: float, *, epsilon: Optional[float] = None, scale_factor: float = 0.5
) -> Spanner:
    metric = as_metric(workload)
    epsilon = _slack_for(stretch, epsilon)
    return bounded_degree_spanner(metric, epsilon, scale_factor=scale_factor)


def _build_mst(workload: Workload, stretch: float) -> Spanner:
    metric = as_metric(workload)
    if metric is not None:
        return metric_mst_spanner(metric)
    return mst_spanner(workload)


def _build_complete(workload: Workload, stretch: float) -> Spanner:
    metric = as_metric(workload)
    if metric is not None:
        return complete_metric_spanner(metric)
    return identity_spanner(workload)


def _register_default_builders() -> None:
    register_builder(SpannerBuilder(
        name="greedy",
        description="Algorithm 1, the greedy t-spanner (exact; existentially optimal)",
        domain="weighted graphs and finite metrics",
        supports=_any_workload,
        build_fn=_build_greedy,
    ))
    register_builder(SpannerBuilder(
        name="greedy-parallel",
        description="Algorithm 1 on the band-filter path (byte-identical spanner)",
        domain="weighted graphs and finite metrics",
        supports=_any_workload,
        build_fn=_build_greedy_parallel,
    ))
    register_builder(SpannerBuilder(
        name="approx-greedy",
        description=(
            "Approximate-Greedy (Section 5): greedy on a bounded-degree base, "
            "(1+eps)-stretch"
        ),
        domain="finite metrics",
        supports=_metric_only,
        build_fn=_build_approx_greedy,
    ))
    register_builder(SpannerBuilder(
        name="theta",
        description="Theta-graph on planar Euclidean points (cones from stretch)",
        domain="2-dimensional Euclidean metrics",
        supports=_euclidean_2d,
        build_fn=_build_theta,
    ))
    register_builder(SpannerBuilder(
        name="yao",
        description="Yao graph on planar Euclidean points (cones from stretch)",
        domain="2-dimensional Euclidean metrics",
        supports=_euclidean_2d,
        build_fn=_build_yao,
    ))
    register_builder(SpannerBuilder(
        name="wspd",
        description="WSPD spanner (well-separated pair decomposition)",
        domain="Euclidean metrics",
        supports=_euclidean,
        build_fn=_build_wspd,
    ))
    register_builder(SpannerBuilder(
        name="baswana-sen",
        description="Baswana-Sen randomized (2k-1)-spanner (k from stretch)",
        domain="weighted graphs",
        supports=_graph_only,
        build_fn=_build_baswana_sen,
    ))
    register_builder(SpannerBuilder(
        name="bounded-degree",
        description="Net-tree bounded-degree (1+eps)-spanner (the Theorem 2 substrate)",
        domain="finite metrics",
        supports=_metric_only,
        build_fn=_build_bounded_degree,
    ))
    register_builder(SpannerBuilder(
        name="mst",
        description="Minimum spanning tree (lightness 1, stretch up to n-1)",
        domain="weighted graphs and finite metrics",
        supports=_any_workload,
        build_fn=_build_mst,
    ))
    register_builder(SpannerBuilder(
        name="complete",
        description="The workload itself (stretch 1: complete graph / identity)",
        domain="weighted graphs and finite metrics",
        supports=_any_workload,
        build_fn=_build_complete,
    ))


_register_default_builders()
