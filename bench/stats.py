"""Latency summaries that report no tail from too few samples."""
from __future__ import annotations

import statistics

TAIL_PERCENTILES = (99, 90, 75)
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
MIN_FOR_TAIL = 40  # below this, the median alone


def tail_percentile(n: int) -> int | None:
    """Highest percentile with at least MIN_BEYOND of n samples beyond it."""
    if n < MIN_FOR_TAIL:
        return None
    for q in TAIL_PERCENTILES:
        if n * (100 - q) >= MIN_BEYOND * 100:
            return q
    return None


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def latency_summary(samples) -> dict[str, float]:
    """{"p50": median} plus the one tail percentile that `samples` supports."""
    out = {"p50": statistics.median(samples)}
    q = tail_percentile(len(samples))
    if q is not None:
        out[f"p{q}"] = percentile(samples, q)
    return out
