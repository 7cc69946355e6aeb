"""Percentiles that are only reported when the sample supports them.

One rule, used for every timing the benchmark prints: a percentile is
trusted when at least :data:`MIN_BEYOND` samples lie beyond it, and the
sample count always travels with the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MIN_BEYOND",
    "TAIL_LADDER",
    "TimingSummary",
    "median",
    "percentile",
    "summarize",
    "supported_tail",
]

MIN_BEYOND = 10
# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``count`` samples
    (rounded first, so 99.99 % of 100,000 is rank 99,990, not 99,991)."""
    return max(1, math.ceil(round(p / 100.0 * count, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return float(ordered[_rank(p, len(ordered)) - 1])


def median(samples) -> float:
    return percentile(samples, 50.0)


def supported_tail(count: int) -> float:
    """Highest percentile of :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it (50.0 at worst)."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if count - _rank(p, count) >= MIN_BEYOND:
            best = p
    return best


@dataclass(frozen=True)
class TimingSummary:
    """Median plus the highest supported tail of one timing sample."""

    count: int
    p50: float
    tail_percentile: float
    tail: float


def summarize(samples) -> TimingSummary:
    ordered = sorted(samples)
    tail_p = supported_tail(len(ordered))
    return TimingSummary(
        count=len(ordered),
        p50=percentile(ordered, 50.0),
        tail_percentile=tail_p,
        tail=percentile(ordered, tail_p),
    )
