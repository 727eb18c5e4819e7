"""Arrival processes and reference streams for online experiments."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive


def poisson_arrivals(
    rate_per_s: float, horizon_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times of a Poisson process on ``[0, horizon)``.

    Exponential inter-arrival sampling; returned sorted ascending.
    """
    check_positive("rate_per_s", rate_per_s)
    check_positive("horizon_s", horizon_s)
    # over-sample then trim: mean count + 6 sigma covers the horizon w.h.p.
    expected = rate_per_s * horizon_s
    n_draw = int(expected + 6.0 * np.sqrt(expected + 1.0)) + 8
    while True:
        gaps = rng.exponential(1.0 / rate_per_s, size=n_draw)
        times = np.cumsum(gaps)
        if times[-1] >= horizon_s:
            return times[times < horizon_s]
        n_draw *= 2  # pragma: no cover - astronomically rare


def zipf_dataset_stream(
    n_datasets: int,
    n_requests: int,
    *,
    alpha: float = 1.1,
    rng: np.random.Generator,
) -> list[int]:
    """Zipf-skewed sequence of dataset indices in ``[0, n_datasets)``.

    ``alpha`` > 1 controls skew (larger = hotter head). This is the
    standard model for content popularity, and what makes caching pay
    in E6: a small hot set absorbs most requests.
    """
    if n_datasets < 1:
        raise ConfigurationError(f"n_datasets must be >= 1, got {n_datasets}")
    if n_requests < 0:
        raise ConfigurationError(f"n_requests must be >= 0, got {n_requests}")
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    ranks = np.arange(1, n_datasets + 1, dtype=float)
    weights = ranks ** (-alpha)
    weights /= weights.sum()
    return [int(i) for i in rng.choice(n_datasets, size=n_requests, p=weights)]
