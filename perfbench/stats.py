"""Summary arithmetic of the benchmark: medians, tail percentile, failure share."""

from __future__ import annotations

import statistics

__all__ = ["TAIL_BEYOND", "median", "tail_percentile", "fail_share"]

# A tail percentile is reported only where at least this many samples
# lie beyond it, so a single outlier cannot set it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """The highest percentile that keeps ``beyond`` samples above it.

    Returns (percentile rank, value): the order statistic with exactly
    ``beyond`` samples after it in sorted order, and its rank
    100 (n - beyond) / n rounded down.  None when n <= beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    return 100 * (n - beyond) // n, float(ordered[n - beyond - 1])


def fail_share(outcomes) -> tuple[int, int, float]:
    """(attempted, failed, share) over per-run problem lists.

    A run failed when its list is non-empty: it exited nonzero,
    raised, left no result, or its report did not match.
    """
    attempted = len(outcomes)
    failed = sum(1 for problems in outcomes if problems)
    return attempted, failed, failed / attempted
