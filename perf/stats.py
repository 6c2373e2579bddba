"""Sample statistics the benchmark reports: pure functions, no I/O."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

# The ladder of percentiles a latency may be reported at.  A run reports
# the median plus the highest rung that still has MIN_BEYOND samples
# beyond it (choosing-metrics guide, section 1).
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported_percentile(count: int) -> float:
    """The highest ladder rung with at least MIN_BEYOND of ``count``
    samples beyond it; the median when the sample supports nothing more."""
    best = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        per_mille_beyond = 1000 - round(pct * 10)     # exact integers
        if count * per_mille_beyond >= MIN_BEYOND * 1000:
            best = pct
    return best


def median_and_spread(values: Sequence[float]) -> tuple[float, float]:
    """Median over trials and the trial spread ``(max - min) / median``."""
    mid = statistics.median(values)
    spread = (max(values) - min(values)) / mid if mid else 0.0
    return mid, spread


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the
    median -- the run-to-run spread the driver judges a metric by."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def histogram_quantile(bounds: Sequence[float], cumulative: Sequence[int],
                       q: float) -> Optional[float]:
    """Quantile ``q`` (0..1) of a cumulative-bucket histogram, linearly
    interpolated inside the bucket (Prometheus ``histogram_quantile``).

    ``cumulative`` has one more entry than ``bounds`` (the +Inf bucket);
    a quantile that lands there is reported as the last finite bound.
    """
    total = cumulative[-1] if cumulative else 0
    if total <= 0:
        return None
    target = q * total
    previous_count = 0
    previous_bound = 0.0
    for bound, count in zip(bounds, cumulative):
        if count >= target:
            inside = count - previous_count
            if inside <= 0:
                return bound
            share = (target - previous_count) / inside
            return previous_bound + (bound - previous_bound) * share
        previous_count, previous_bound = count, bound
    return bounds[-1]


def histogram_delta(after: dict, before: Optional[dict]) -> tuple[list, list]:
    """Bounds and cumulative counts of ``after - before`` for one
    labelled histogram value of a STATS snapshot."""
    buckets = list(after["buckets"])
    if before is not None:
        buckets = [a - b for a, b in zip(buckets, before["buckets"])]
    return list(after["bounds"]), buckets
