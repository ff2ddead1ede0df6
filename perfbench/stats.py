"""Order statistics, the tail-percentile rule and the compare verdicts."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with >= TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count). With too few samples to
    leave TAIL_BEYOND beyond any rank, the minimum is returned as the
    0th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - 1 - TAIL_BEYOND  # 0-based rank; n - 1 - k samples lie beyond
    if k < 0:
        return xs[0], 0.0, n
    # nearest rank: percentile p selects xs[ceil(p/100 * n) - 1]
    return xs[k], 100.0 * (k + 1) / n, n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric.

    `bound` is the share of the base median by which the metric may get
    worse. When the base runs' own spread (quartile distance over median)
    is wider than the bound, the metric is unresolved unless every new
    run beats every base run. Otherwise it is worse past the bound,
    better when the gain exceeds the base spread, and unchanged between.
    """
    sign = -1.0 if better == "lower" else 1.0
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    if bm == 0:
        return "unchanged" if nm == 0 else "unresolved"
    spread = (b3 - b1) / abs(bm)
    change = sign * (nm - bm) / abs(bm)
    if spread > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better"
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > 0 and change > spread:
        return "better"
    return "unchanged"
