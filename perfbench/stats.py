"""Summary statistics shared by every workload of the benchmark."""

from __future__ import annotations

import numpy as np

# Standard percentiles the tail is chosen from, in tenths of a percent so the
# "at least ten samples beyond" test is exact integer arithmetic.
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10


def tail_permille(count: int) -> int | None:
    """Highest ladder percentile (in permille) with >= 10 samples beyond it.

    ``count * (1000 - q) / 1000`` samples lie beyond percentile ``q``; the rule
    keeps only percentiles the sample can actually resolve.  Returns None when
    even the median has fewer than ten samples beyond it (count < 20).
    """
    best = None
    for q in TAIL_LADDER_PERMILLE:
        if count * (1000 - q) >= TAIL_MIN_BEYOND * 1000:
            best = q
    return best


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail timing of ``values``.

    Falls back to the median, reported as percentile 50, when the sample is
    too small for the ten-beyond rule; callers print the sample count next to
    the percentile so the fallback is visible.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("tail of an empty sample")
    q = tail_permille(arr.size) or 500
    return q / 10.0, float(np.percentile(arr, q / 10.0))


def median(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(arr))


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its child spans cover.

    Children may overlap each other (worker threads running in parallel under
    one parent) or stick out of the parent; only the covered part of the
    parent's own interval is subtracted, once.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)
