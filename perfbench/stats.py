"""Summary statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.  A fixed ladder keeps the
# reported percentile the same across runs whose sample counts differ a little.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(n * pct / 100.0))
    return sorted_values[rank - 1]


def tail(values):
    """(percentile, value, samples beyond it, n) for the highest ladder
    percentile that leaves at least MIN_BEYOND samples above its rank.

    Returns None when there are too few samples for any of them.
    """
    data = sorted(values)
    n = len(data)
    best = None
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(n * pct / 100.0))
        if beyond >= MIN_BEYOND:
            best = (pct, nearest_rank(data, pct), beyond, n)
    return best


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median,
    computed as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))
