"""Scalar summary statistics used across the experiment harness."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["mean", "stdev", "histogram_pdf"]


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sequence."""
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def stdev(xs: Sequence[float]) -> float:
    """Population standard deviation; 0 for fewer than two samples."""
    xs = list(xs)
    if len(xs) < 2:
        return 0.0
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def histogram_pdf(
    xs: Sequence[float], bins: int = 10, lo: float = 0.0, hi: float = 1.0
) -> List[Tuple[float, float]]:
    """Normalized histogram: list of (bin_center, probability mass).

    Used to reproduce Figure 4's PDF of normalized queue length at false
    positives.  Values outside [lo, hi] are clamped into the edge bins.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if hi <= lo:
        raise ValueError("need hi > lo")
    counts = [0] * bins
    width = (hi - lo) / bins
    n = 0
    for x in xs:
        idx = int((x - lo) / width)
        idx = min(max(idx, 0), bins - 1)
        counts[idx] += 1
        n += 1
    if n == 0:
        return [(lo + (i + 0.5) * width, 0.0) for i in range(bins)]
    return [(lo + (i + 0.5) * width, counts[i] / n) for i in range(bins)]
