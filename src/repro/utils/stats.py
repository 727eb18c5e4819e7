"""Small statistics helpers used by result summaries and benchmark reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def percentile(samples, q: float) -> float:
    """Percentile with linear interpolation; ``q`` in [0, 100].

    Returns NaN for an empty sample set instead of raising, which keeps
    report code branch-free.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        return math.nan
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample set."""

    count: int
    mean: float
    std: float
    min: float
    p50: float
    p95: float
    p99: float
    max: float


def summarize(samples) -> Summary:
    """Compute a :class:`Summary` of ``samples`` (any iterable of floats)."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        nan = math.nan
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        max=float(arr.max()),
    )
