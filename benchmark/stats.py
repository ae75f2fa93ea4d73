"""Summary statistics for timing samples.

Percentiles use the nearest-rank rule on the sorted samples, so every
reported value is one that was measured. A percentile is only reported
when at least ``MIN_BEYOND`` samples lie above it; otherwise the tail it
claims to describe was not observed.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def median(samples):
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def rank(n, q):
    """Zero-based index of the nearest-rank ``q``-th percentile of n samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # the epsilon keeps float error in q/100*n (99.9% of 10000) from adding a rank
    return max(0, math.ceil(q / 100.0 * n - 1e-9) - 1)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the ``q``-th percentile's rank."""
    return n - 1 - rank(n, q)


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile; raises when fewer than ``min_beyond``
    samples lie beyond it."""
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it, need {min_beyond}"
        )
    return sorted(samples)[rank(n, q)]


def highest_percentile(n, min_beyond=MIN_BEYOND, candidates=CANDIDATE_PERCENTILES):
    """The highest candidate percentile with ``min_beyond`` samples above it,
    or None when not even the median qualifies."""
    best = None
    for q in candidates:
        if samples_beyond(n, q) >= min_beyond:
            best = q
    return best
