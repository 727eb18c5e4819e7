"""The policy bundle the execution layers consume, plus run accounting.

:class:`ResiliencePolicy` groups the retry/breaker/hedge/timeout knobs
into one object with three named presets — the policies E13 races:

- ``naive()`` — immediate requeue on failure, nothing else,
- ``backoff()`` — exponential backoff + a run-wide retry budget,
- ``full()`` — backoff + budget + per-site circuit breakers +
  speculative hedging + per-attempt timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.resilience.breaker import BreakerConfig, BreakerRegistry
from repro.resilience.hedging import HedgePolicy
from repro.resilience.retry import RetryBudget, RetryPolicy


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything a scheduler needs to know about failure response.

    ``timeout_factor`` bounds each attempt at ``factor *`` its planner
    estimate (stage + exec); ``timeout_min_s`` floors that bound so
    tiny tasks are not killed by estimate noise.  ``None`` disables
    attempt timeouts.
    """

    name: str = "custom"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    budget_fast_retries: int | None = None
    budget_cooldown_s: float = 5.0
    breaker: BreakerConfig | None = None
    hedge: HedgePolicy | None = None
    timeout_factor: float | None = None
    timeout_min_s: float = 0.0

    def __post_init__(self):
        if self.timeout_factor is not None and self.timeout_factor <= 0:
            raise ConfigurationError(
                f"timeout_factor must be positive, got {self.timeout_factor}"
            )
        if self.timeout_min_s < 0:
            raise ConfigurationError(
                f"timeout_min_s must be >= 0, got {self.timeout_min_s}"
            )

    # -- presets ----------------------------------------------------------------
    @classmethod
    def naive(cls, max_attempts: int = 30) -> "ResiliencePolicy":
        """Immediate requeue on every failure (the seed behaviour)."""
        return cls(
            name="naive-retry",
            retry=RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.0),
        )

    @classmethod
    def backoff(cls, max_attempts: int = 30, *, seed: int = 0,
                base_s: float = 0.5, factor: float = 2.0,
                max_s: float = 30.0, jitter: float = 0.25,
                budget: int | None = 200,
                cooldown_s: float = 10.0) -> "ResiliencePolicy":
        """Exponential backoff with jitter plus a run-wide retry budget."""
        return cls(
            name="backoff+budget",
            retry=RetryPolicy(
                max_attempts=max_attempts, backoff_base_s=base_s,
                backoff_factor=factor, backoff_max_s=max_s,
                jitter_frac=jitter, seed=seed,
            ),
            budget_fast_retries=budget,
            budget_cooldown_s=cooldown_s,
        )

    @classmethod
    def full(cls, max_attempts: int = 30, *, seed: int = 0,
             base_s: float = 0.5, factor: float = 2.0,
             max_s: float = 30.0, jitter: float = 0.25,
             budget: int | None = 200, cooldown_s: float = 10.0,
             failure_threshold: int = 2, reset_timeout_s: float = 20.0,
             hedge_trigger: float = 1.5, max_hedges: int = 1,
             timeout_factor: float | None = 4.0,
             timeout_min_s: float = 5.0) -> "ResiliencePolicy":
        """Backoff + budget + circuit breakers + hedging + timeouts."""
        return cls(
            name="backoff+breakers+hedging",
            retry=RetryPolicy(
                max_attempts=max_attempts, backoff_base_s=base_s,
                backoff_factor=factor, backoff_max_s=max_s,
                jitter_frac=jitter, seed=seed,
            ),
            budget_fast_retries=budget,
            budget_cooldown_s=cooldown_s,
            breaker=BreakerConfig(failure_threshold=failure_threshold,
                                  reset_timeout_s=reset_timeout_s),
            hedge=HedgePolicy(trigger_factor=hedge_trigger,
                              max_hedges=max_hedges),
            timeout_factor=timeout_factor,
            timeout_min_s=timeout_min_s,
        )

    # -- per-run state factories --------------------------------------------------
    def make_budget(self) -> RetryBudget | None:
        """Fresh budget for one run (None when unlimited & cooldown-free)."""
        if self.budget_fast_retries is None:
            return None
        return RetryBudget(self.budget_fast_retries,
                           cooldown_s=self.budget_cooldown_s)

    def make_breakers(self) -> BreakerRegistry | None:
        """Fresh breaker registry for one run."""
        if self.breaker is None:
            return None
        return BreakerRegistry(self.breaker)

    def attempt_timeout_s(self, est_total_s: float) -> float | None:
        """Per-attempt wall bound given the planner estimate, or None."""
        if self.timeout_factor is None:
            return None
        return max(self.timeout_min_s, est_total_s * self.timeout_factor)


@dataclass
class ResilienceStats:
    """Every recovery action one run took, counted.

    ``retries`` counts re-executions after failures (interrupts,
    transient faults, timeouts); ``hedges_launched/won/lost`` track
    speculative duplicates; ``lost_tasks`` must stay zero under any
    policy — resilience paces recovery, it never drops work.
    """

    policy: str = "none"
    attempts_total: int = 0
    retries: int = 0
    backoff_delay_s: float = 0.0
    budget_denials: int = 0
    breaker_trips: int = 0
    breaker_probes: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_lost: int = 0
    timeouts: int = 0
    transient_faults: int = 0
    lost_tasks: int = 0

    def emit_metrics(self, registry) -> None:
        """Emit every count as a policy-labeled ``resilience_*`` counter."""
        registry.emit((
            ("resilience_attempts_total", "Execution attempts launched",
             self.attempts_total),
            ("resilience_retries_total",
             "Attempts relaunched after a failure", self.retries),
            ("resilience_backoff_seconds_total",
             "Simulated seconds spent backing off", self.backoff_delay_s),
            ("resilience_budget_denials_total",
             "Retries refused by the retry budget", self.budget_denials),
            ("resilience_breaker_trips_total",
             "Circuit-breaker open transitions", self.breaker_trips),
            ("resilience_breaker_probes_total", "Half-open probe attempts",
             self.breaker_probes),
            ("resilience_hedges_launched_total", "Hedge duplicates launched",
             self.hedges_launched),
            ("resilience_hedges_won_total",
             "Hedge duplicates that finished first", self.hedges_won),
            ("resilience_hedges_lost_total",
             "Hedge duplicates cancelled or beaten", self.hedges_lost),
            ("resilience_timeouts_total",
             "Attempts cut down by the attempt timeout", self.timeouts),
            ("resilience_transient_faults_total",
             "Chaos-injected transient faults hit", self.transient_faults),
            ("resilience_lost_tasks_total",
             "Tasks that exhausted every recovery lever", self.lost_tasks),
        ), {"policy": self.policy})

    def as_row(self) -> dict:
        """Flat dict for tables and trace attributes."""
        return {
            "policy": self.policy,
            "attempts": self.attempts_total,
            "retries": self.retries,
            "backoff_s": self.backoff_delay_s,
            "budget_denials": self.budget_denials,
            "breaker_trips": self.breaker_trips,
            "hedges": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "timeouts": self.timeouts,
            "lost": self.lost_tasks,
        }
