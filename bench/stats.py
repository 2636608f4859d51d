"""Order statistics the benchmark reports: median, nearest-rank
percentiles, the tail-percentile rule and the quartile spread."""

from __future__ import annotations

import statistics

#: (label, share of samples beyond it, in ten-thousandths), highest
#: first.  Integer shares keep ``n * share >= 10`` exact at the round
#: sample counts the rule is stated for (100 → p90, 1000 → p99).
_TAILS = ((99.99, 1), (99.9, 10), (99.0, 100), (90.0, 1000), (50.0, 5000))


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """The *pct*-th percentile of *values* by nearest rank."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = -(-len(ordered) * pct // 100)  # ceil
    return float(ordered[max(0, min(len(ordered) - 1, int(rank) - 1))])


def tail_percentile(count: int) -> float:
    """The highest reportable percentile for *count* samples: the
    highest one that still has at least ten samples beyond it (p50
    when even p90 does not)."""
    for label, beyond in _TAILS:
        if count * beyond >= 10 * 10000:
            return label
    return 50.0


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the
    repeatability figure the driver computes over ten runs."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else float("inf")
