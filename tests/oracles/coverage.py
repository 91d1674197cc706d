"""The packed-pair coverage set: the seed form of ``CoverageIndex.covered``.

Coverage used to be one ``set`` of unordered id pairs, each packed into one
int as ``(lo << 32) | hi``: every ``(source, x)`` pair any ball had settled.
:class:`~repro.core.distance_oracle.CoverageIndex` now keeps one ball set
per source instead.  Both answer "did a ball from one endpoint settle the
other?" identically, so tests compare the ball sets against this reference
through :func:`packed_pairs`, the unordered-pair view of them.
"""

from __future__ import annotations

from typing import Iterable


def pack(uid: int, vid: int) -> int:
    """The unordered pair ``{uid, vid}`` packed as ``(lo << 32) | hi``."""
    return ((uid << 32) | vid) if uid <= vid else ((vid << 32) | uid)


def packed_pairs(covered: dict[int, set[int]]) -> set[int]:
    """Every ``(source, x)`` pair of the per-source ball sets, packed."""
    return {pack(source, x) for source, ids in covered.items() for x in ids}


class PackedPairCoverage:
    """Coverage as one set of packed unordered pairs."""

    def __init__(self) -> None:
        self.pairs: set[int] = set()

    def harvest(self, source: int, ids: Iterable[int]) -> None:
        """Record every ``(source, x)`` pair, ``x`` in ``ids``, as covered."""
        self.pairs.update(pack(source, x) for x in ids)

    def covers(self, uid: int, vid: int) -> bool:
        """Return True if the unordered pair is covered."""
        return pack(uid, vid) in self.pairs
