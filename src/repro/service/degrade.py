"""Deadline-driven graceful degradation over the spanner-builder registry.

Filtser–Solomon's existential optimality makes the greedy spanner the
artifact worth waiting for — and every other builder in the registry a
*cheaper degradation target* when the budget tightens.  This module walks a
declared fallback chain (default greedy → approx-greedy → theta → yao →
mst) with a per-stage deadline check:

* a tier whose builder does not support the workload kind is recorded as
  ``unsupported`` and skipped (the chain is declared once, the registry's
  ``supports`` predicates do the filtering);
* a tier is only *started* while budget remains — once the budget is spent,
  every remaining tier except the terminal fallback is ``skipped-deadline``;
* a tier that raises is recorded as ``error`` (with the message) and the
  walk continues down the chain;
* the **terminal fallback always runs**: a deadline overrun degrades the
  answer, it never degrades into no answer.  Only when every tier is
  unsupported or errored does :class:`~repro.errors.TimeBudgetExceededError`
  escape;
* a malformed *request* never degrades: a stretch below 1 (or NaN), or
  per-tier params naming a tier outside the chain or a param its builder
  does not take, raise before any tier runs.

The result records which tier served, each tier's outcome and timing, and
(optionally) the served spanner's measured stretch — the honesty metric of
a degraded serve, since e.g. the MST tier's guarantee is only ``n - 1``.

The clock is injectable (``clock=``, monotonic seconds) so the deadline laws
are tested with a fake clock instead of sleeps.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.greedy import check_stretch
from repro.core.spanner import Spanner
from repro.errors import (
    InvalidTierParamsError,
    TimeBudgetExceededError,
    UnsupportedWorkloadError,
)
from repro.spanners.registry import Workload, get_builder

#: The default fallback chain, strongest guarantee first.  greedy is the
#: serial exact greedy (the existentially optimal artifact; the band builder
#: ``greedy-parallel`` builds the same edges more slowly and is still
#: available by name).  The later tiers carry weaker guarantees and are
#: faster from moderate sizes on: approx-greedy ties greedy on uniform 2-D
#: points through n = 160 and is faster from n = 320 (0.7 s against 2.0 s
#: at n = 1000, 2-CPU host).  The chain ends at the MST, which always exists
#: and is the cheapest connected fallback.
DEFAULT_CHAIN: tuple[str, ...] = (
    "greedy",
    "approx-greedy",
    "theta",
    "yao",
    "mst",
)


@dataclass
class TierOutcome:
    """What happened to one tier of the chain.

    ``status`` is one of ``served`` / ``unsupported`` / ``skipped-deadline``
    / ``error`` / ``not-needed`` (chain positions after the serving tier);
    ``seconds`` is only nonzero for tiers that actually ran.
    """

    tier: str
    status: str
    seconds: float = 0.0
    error: Optional[str] = None

    def as_dict(self) -> dict:
        record: dict = {"tier": self.tier, "status": self.status, "seconds": self.seconds}
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass
class DegradationResult:
    """The outcome of one chain walk.

    Attributes
    ----------
    spanner:
        The served spanner (from the tier named by ``tier``).
    tier:
        The builder that served the request.
    tier_index:
        Position of ``tier`` in the requested chain.
    degraded:
        True when ``tier`` is not the chain's first *supported* tier — the
        request was served, but not by the preferred construction.
    deadline_exceeded:
        True when the total walk overran the budget (including the case
        where the serving tier itself ran past the deadline).
    outcomes:
        Per-tier record of the walk, in chain order.
    elapsed_seconds:
        Total wall-clock of the walk under the injected clock.
    """

    spanner: Spanner
    tier: str
    tier_index: int
    degraded: bool
    deadline_exceeded: bool
    outcomes: list[TierOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def outcome_rows(self) -> list[dict]:
        return [outcome.as_dict() for outcome in self.outcomes]


def supported_chain(chain: Sequence[str], workload: Workload) -> list[str]:
    """The subsequence of ``chain`` whose builders support ``workload``."""
    supported = []
    for name in chain:
        if get_builder(name).supports(workload):
            supported.append(name)
    return supported


def check_request(
    chain: Sequence[str], stretch: float, params_by_tier: dict[str, dict]
) -> None:
    """Reject a request no tier may serve, before any tier runs.

    Raises :class:`~repro.errors.InvalidStretchError` for a NaN stretch or
    one below 1, and :class:`~repro.errors.InvalidTierParamsError` when
    ``params_by_tier`` names a tier outside ``chain`` or a param that is not
    a keyword of the tier's ``build_fn``.
    """
    check_stretch(stretch)
    for name, params in params_by_tier.items():
        if name not in chain:
            raise InvalidTierParamsError(
                f"params given for tier {name!r}, which is not in the chain {list(chain)}"
            )
        accepted = {
            parameter.name
            for parameter in inspect.signature(get_builder(name).build_fn).parameters.values()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise InvalidTierParamsError(
                f"tier {name!r} takes no param {', '.join(map(repr, unknown))}; "
                f"it accepts {sorted(accepted) or 'none'}"
            )


def run_with_degradation(
    workload: Workload,
    stretch: float,
    *,
    chain: Sequence[str] = DEFAULT_CHAIN,
    budget_seconds: Optional[float] = None,
    params_by_tier: Optional[dict[str, dict]] = None,
    clock: Callable[[], float] = time.monotonic,
) -> DegradationResult:
    """Walk the fallback chain under the time budget; always serve something.

    ``budget_seconds=None`` never degrades on time (tiers can still degrade
    on ``unsupported`` / ``error``).  ``params_by_tier`` forwards extra
    registry params to specific tiers (e.g. ``{"greedy-parallel":
    {"bands": 8}}``); see :func:`check_request` for what raises up front.
    """
    if not chain:
        raise ValueError("the fallback chain must name at least one builder")
    params_by_tier = params_by_tier or {}
    check_request(chain, stretch, params_by_tier)
    start = clock()
    deadline = None if budget_seconds is None else start + float(budget_seconds)
    supported = set(supported_chain(chain, workload))
    terminal = None
    for name in reversed(chain):
        if name in supported:
            terminal = name
            break
    outcomes: list[TierOutcome] = []
    first_supported: Optional[str] = None
    served: Optional[Spanner] = None
    served_tier: Optional[str] = None
    served_index = -1
    for index, name in enumerate(chain):
        if name not in supported:
            outcomes.append(TierOutcome(name, "unsupported"))
            continue
        if first_supported is None:
            first_supported = name
        out_of_budget = deadline is not None and clock() >= deadline
        if out_of_budget and name != terminal:
            outcomes.append(TierOutcome(name, "skipped-deadline"))
            continue
        tier_start = clock()
        try:
            spanner = get_builder(name).build(
                workload, stretch, **params_by_tier.get(name, {})
            )
        except UnsupportedWorkloadError:  # pragma: no cover - filtered above
            outcomes.append(TierOutcome(name, "unsupported", seconds=clock() - tier_start))
            continue
        except Exception as exc:  # noqa: BLE001 - recorded, chain continues
            outcomes.append(
                TierOutcome(
                    name,
                    "error",
                    seconds=clock() - tier_start,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        outcomes.append(TierOutcome(name, "served", seconds=clock() - tier_start))
        served, served_tier, served_index = spanner, name, index
        break
    if served is None or served_tier is None:
        raise TimeBudgetExceededError(
            "no tier of the fallback chain could serve the request "
            f"(chain={list(chain)}, outcomes="
            f"{[outcome.as_dict() for outcome in outcomes]})"
        )
    # Tiers after the serving one were never considered; record them so the
    # outcome rows always cover the whole declared chain.
    for name in chain[served_index + 1 :]:
        outcomes.append(
            TierOutcome(name, "unsupported" if name not in supported else "not-needed")
        )
    elapsed = clock() - start
    return DegradationResult(
        spanner=served,
        tier=served_tier,
        tier_index=served_index,
        degraded=served_tier != first_supported,
        deadline_exceeded=deadline is not None and clock() > deadline,
        outcomes=outcomes,
        elapsed_seconds=elapsed,
    )
