"""Percentiles for latency reports.

A timing is reported as its median and a tail percentile.  The tail is
the highest percentile of a fixed ladder that leaves at least ten samples
beyond it.  Each workload fixes its percentile in advance (from the number
of operations the seed program completes in one run), so the metric means
the same thing on every commit; the report states how many samples were
actually beyond it.
"""

from __future__ import annotations

import math

LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def nearest_rank(samples: list[float], pct: float) -> tuple[float, int]:
    """(value, samples strictly beyond its rank) for the pct-th percentile."""
    xs = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ten of ``count`` samples
    beyond it, or None when there are fewer than twenty samples."""
    best = None
    for pct in LADDER:
        if count - max(1, math.ceil(pct / 100 * count)) >= MIN_BEYOND:
            best = pct
    return best

