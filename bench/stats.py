"""Tail percentile of a sample of timings."""

import math
import statistics


def tail(values):
    """(p, value): the highest percentile, at most p99, with >= 10 samples beyond it.

    Nearest-rank: the value at rank ceil(p*n) has n - ceil(p*n) >= 10 samples
    above it.  With fewer than 20 samples no percentile above the median
    qualifies, and the median is returned with p = 0.5.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 0.5, statistics.median(ordered)
    p = min(0.99, (n - 10) / n)
    return p, ordered[max(math.ceil(p * n), 1) - 1]

