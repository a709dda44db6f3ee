"""Order statistics for the benchmark's latency samples.

A failed op is recorded as a latency of +inf, never as the time it took to
raise: it misses any latency limit, so it counts against every percentile
instead of being dropped. A percentile that lands on a failed op is itself
missing (+inf), and the report prints it as null; ``statistics.median``
already gives +inf when its middle lands on one.
"""

from __future__ import annotations

import math

MISSING = math.inf
TAIL_BEYOND = 10


def tail(values, percentile: float):
    """The nearest-rank ``percentile`` of the samples.

    Returns ``(value, beyond, n)``: the sample at rank ``ceil(percentile/100 * n)``
    in sorted order, how many samples lie after it, and the sample count; None
    when there are no samples. Each workload fixes its percentile, so two runs
    compare the same percentile whatever op count they reached.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        return None
    idx = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return s[idx], n - idx - 1, n


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest percentile that has ``beyond`` samples after it among ``n``."""
    return 100.0 * (n - beyond) / n


def finite_or_none(value):
    """JSON-safe number: a missing (+inf) statistic becomes None."""
    return None if value is None or math.isinf(value) else value
