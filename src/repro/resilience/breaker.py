"""Circuit breakers: per-site / per-endpoint health gating.

The classic three-state machine.  CLOSED counts consecutive failures;
at ``failure_threshold`` the breaker trips OPEN and the protected
target stops receiving work.  After ``reset_timeout_s`` it becomes
HALF_OPEN and admits a single probe; the probe's outcome either closes
the breaker or re-opens it for another timeout.

Breakers here are *clock-passive*: they never schedule events.  Callers
pass the simulated ``now`` into every method, which keeps traced runs
bit-identical to untraced ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive


class BreakerState(Enum):
    """Health of one protected target."""

    CLOSED = "closed"          # healthy, all traffic admitted
    OPEN = "open"              # tripped, all traffic rejected
    HALF_OPEN = "half_open"    # timeout elapsed, one probe admitted


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs for one :class:`CircuitBreaker`."""

    failure_threshold: int = 3
    reset_timeout_s: float = 30.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        check_positive("reset_timeout_s", self.reset_timeout_s)


class CircuitBreaker:
    """One target's failure-gate.

    ``record_failure``/``record_success`` feed outcomes in;
    ``blocked(now)`` answers "should new work avoid this target right
    now".  A HALF_OPEN breaker admits exactly one probe at a time: the
    placer calls :meth:`note_probe` when it actually routes the probe,
    which blocks further traffic until that probe's outcome arrives.
    """

    def __init__(self, config: BreakerConfig | None = None, name: str = ""):
        self.config = config or BreakerConfig()
        self.name = name
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        # counters
        self.trips = 0
        self.probes = 0

    # -- state -----------------------------------------------------------------
    def state(self, now: float) -> BreakerState:
        if self._opened_at is None:
            return BreakerState.CLOSED
        if now >= self._opened_at + self.config.reset_timeout_s:
            return BreakerState.HALF_OPEN
        return BreakerState.OPEN

    def blocked(self, now: float) -> bool:
        """True when new work must not be sent to this target."""
        state = self.state(now)
        if state is BreakerState.CLOSED:
            return False
        if state is BreakerState.OPEN:
            return True
        return self._probe_in_flight

    @property
    def next_probe_at(self) -> float | None:
        """When the breaker next admits a probe (None when closed or
        already probing)."""
        if self._opened_at is None or self._probe_in_flight:
            return None
        return self._opened_at + self.config.reset_timeout_s

    # -- transitions -----------------------------------------------------------
    def note_probe(self, now: float) -> None:
        """The caller routed the half-open probe; block until it lands.
        Idempotent while that probe is in flight: a window admits (and
        counts) exactly one probe."""
        if (self.state(now) is BreakerState.HALF_OPEN
                and not self._probe_in_flight):
            self._probe_in_flight = True
            self.probes += 1

    def record_success(self, now: float) -> None:
        self._consecutive_failures = 0
        self._opened_at = None
        self._probe_in_flight = False

    def record_failure(self, now: float) -> None:
        self._probe_in_flight = False
        if self.state(now) is BreakerState.HALF_OPEN:
            # failed probe: straight back to OPEN for another timeout
            self._opened_at = now
            return
        self._consecutive_failures += 1
        if (self._opened_at is None
                and self._consecutive_failures >= self.config.failure_threshold):
            self._opened_at = now
            self.trips += 1


class BreakerRegistry:
    """Lazily-created breakers keyed by target name (site, endpoint)."""

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config or BreakerConfig()
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, name: str) -> CircuitBreaker:
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(self.config, name=name)
            self._breakers[name] = breaker
        return breaker

    def blocked(self, name: str, now: float) -> bool:
        breaker = self._breakers.get(name)
        return breaker.blocked(now) if breaker is not None else False

    def next_probe_at(self, now: float) -> float | None:
        """Earliest future instant any blocked breaker admits a probe."""
        times = [
            b.next_probe_at for b in self._breakers.values()
            if b.blocked(now) and b.next_probe_at is not None
        ]
        return min(times) if times else None

    @property
    def total_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())

    @property
    def total_probes(self) -> int:
        return sum(b.probes for b in self._breakers.values())
