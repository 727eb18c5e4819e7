"""Resilience policies: how the system responds when the continuum fails.

One policy vocabulary shared by the simulated continuum scheduler and
its replicated control plane:

- :class:`RetryPolicy` — exponential backoff with deterministic seeded
  jitter and per-task attempt caps,
- :class:`RetryBudget` — a run-wide cap on *fast* retries, so failure
  storms degrade into paced recovery instead of thrashing,
- :class:`CircuitBreaker` / :class:`BreakerRegistry` — per-site (or
  per-endpoint) closed -> open -> half-open health gating,
- :class:`HedgePolicy` — speculative re-execution of straggling tasks
  on a second site, cancelling the loser,
- :class:`ResiliencePolicy` — the bundle the scheduler consumes, with
  the three presets E13 races against each other
  (:meth:`ResiliencePolicy.naive`, :meth:`ResiliencePolicy.backoff`,
  :meth:`ResiliencePolicy.full`),
- :class:`ResilienceStats` — per-run accounting of every recovery
  action taken (retries, trips, probes, hedges, timeouts).

Everything here is deterministic: jitter is keyed on (seed, task,
attempt) rather than drawn from shared stream state, so the same seed
produces the same recovery schedule no matter which policy knobs are
active around it.
"""

from repro.resilience.breaker import (
    BreakerConfig,
    BreakerRegistry,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.hedging import HedgePolicy
from repro.resilience.policy import ResiliencePolicy, ResilienceStats
from repro.resilience.retry import RetryBudget, RetryPolicy

__all__ = [
    "RetryPolicy",
    "RetryBudget",
    "BreakerState",
    "BreakerConfig",
    "CircuitBreaker",
    "BreakerRegistry",
    "HedgePolicy",
    "ResiliencePolicy",
    "ResilienceStats",
]
