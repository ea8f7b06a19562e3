"""Quartiles and the tail percentile the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def quartiles(xs) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    xs = list(xs)
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def tail(xs, beyond: int = TAIL_BEYOND) -> tuple:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  The value is the
    (n - beyond)-th smallest sample, so exactly ``beyond`` samples lie at
    or above the next rank; the percentile is that rank as a whole-number
    share of n, rounded down.
    """
    s = sorted(xs)
    n = len(s)
    if n <= beyond:
        raise ValueError(f"{n} samples leave fewer than {beyond} beyond any percentile")
    return (s[n - beyond - 1], 100 * (n - beyond) // n, n)
