"""Retry pacing: exponential backoff, seeded jitter, run-wide budgets."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import derive_seed
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class RetryPolicy:
    """How one task's failed attempts are re-tried.

    ``max_attempts`` caps total executions of a task (first try
    included).  The delay before retry ``k`` (``k`` = failures so far,
    1-based) is::

        min(backoff_max_s, backoff_base_s * backoff_factor ** (k - 1))

    scaled by a jitter multiplier drawn uniformly from
    ``[1 - jitter_frac, 1 + jitter_frac]``.  Jitter is *keyed*, not
    streamed: the draw depends only on ``(seed, key, k)``, so two runs
    with the same seed back off identically regardless of how many
    other tasks are retrying around them.

    ``backoff_base_s=0`` gives the naive immediate-requeue policy.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0
    jitter_frac: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        check_non_negative("backoff_base_s", self.backoff_base_s)
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        check_non_negative("backoff_max_s", self.backoff_max_s)
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError(
                f"jitter_frac must be in [0, 1), got {self.jitter_frac}"
            )

    def allows_retry(self, failures: int) -> bool:
        """True while another attempt is permitted after ``failures``."""
        return failures < self.max_attempts

    def delay_s(self, failures: int, key: str = "") -> float:
        """Backoff before the retry following failure ``failures``."""
        if failures < 1:
            raise ConfigurationError(
                f"delay_s needs failures >= 1, got {failures}"
            )
        if self.backoff_base_s == 0.0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (failures - 1)
        delay = min(delay, self.backoff_max_s)
        if self.jitter_frac > 0.0:
            rng = np.random.default_rng(
                derive_seed(self.seed, f"retry:{key}:{failures}")
            )
            delay *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return float(delay)


class RetryBudget:
    """Run-wide cap on *fast* retries.

    Each retry asks the budget for a token.  While tokens remain the
    retry proceeds at its policy backoff; once the budget is spent,
    :meth:`acquire` returns False and the caller is expected to pace the
    retry with ``cooldown_s`` instead — a failure storm degrades into a
    slow trickle rather than a thundering herd, and no task is ever
    dropped for lack of budget.

    Thread-safe, so callers may share one instance across threads.
    """

    def __init__(self, max_fast_retries: int | None = None,
                 cooldown_s: float = 5.0):
        if max_fast_retries is not None and max_fast_retries < 0:
            raise ConfigurationError(
                f"max_fast_retries must be >= 0, got {max_fast_retries}"
            )
        check_non_negative("cooldown_s", cooldown_s)
        self.max_fast_retries = max_fast_retries
        self.cooldown_s = float(cooldown_s)
        self.spent = 0
        self.denied = 0
        self._lock = threading.Lock()

    def acquire(self) -> bool:
        """Take one fast-retry token; False once the budget is dry."""
        with self._lock:
            if (self.max_fast_retries is not None
                    and self.spent >= self.max_fast_retries):
                self.denied += 1
                return False
            self.spent += 1
            return True
