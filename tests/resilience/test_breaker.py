"""CircuitBreaker state machine and registry behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.resilience import (
    BreakerConfig,
    BreakerRegistry,
    BreakerState,
    CircuitBreaker,
)


def make(threshold=3, reset=10.0):
    return CircuitBreaker(BreakerConfig(failure_threshold=threshold,
                                        reset_timeout_s=reset))


class TestStateMachine:
    def test_starts_closed(self):
        b = make()
        assert b.state(0.0) is BreakerState.CLOSED
        assert not b.blocked(0.0)

    def test_trips_after_consecutive_failures(self):
        b = make(threshold=3)
        b.record_failure(1.0)
        b.record_failure(2.0)
        assert b.state(2.0) is BreakerState.CLOSED
        b.record_failure(3.0)
        assert b.state(3.0) is BreakerState.OPEN
        assert b.blocked(4.0)
        assert b.trips == 1

    def test_success_resets_failure_count(self):
        b = make(threshold=2)
        b.record_failure(1.0)
        b.record_success(2.0)
        b.record_failure(3.0)
        assert b.state(3.0) is BreakerState.CLOSED

    def test_half_open_after_timeout(self):
        b = make(threshold=1, reset=10.0)
        b.record_failure(5.0)
        assert b.state(14.9) is BreakerState.OPEN
        assert b.state(15.0) is BreakerState.HALF_OPEN
        assert not b.blocked(15.0)          # probe admitted
        assert b.next_probe_at == 15.0

    def test_single_probe_in_flight(self):
        b = make(threshold=1, reset=10.0)
        b.record_failure(0.0)
        b.note_probe(10.0)
        assert b.probes == 1
        assert b.blocked(10.0)              # probe outstanding blocks more
        assert b.next_probe_at is None

    def test_probe_success_closes(self):
        b = make(threshold=1, reset=10.0)
        b.record_failure(0.0)
        b.note_probe(10.0)
        b.record_success(11.0)
        assert b.state(11.0) is BreakerState.CLOSED
        assert not b.blocked(11.0)

    def test_probe_failure_reopens(self):
        b = make(threshold=1, reset=10.0)
        b.record_failure(0.0)
        b.note_probe(10.0)
        b.record_failure(11.0)
        assert b.state(11.0) is BreakerState.OPEN
        assert b.state(21.0) is BreakerState.HALF_OPEN
        assert b.trips == 1                 # reopen is not a new trip

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(reset_timeout_s=0.0)


class TestRegistry:
    def test_lazy_creation_and_blocking(self):
        reg = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                            reset_timeout_s=5.0))
        assert not reg.blocked("edge", 0.0)    # unknown => healthy
        reg.get("edge").record_failure(1.0)
        assert reg.blocked("edge", 2.0)
        assert not reg.blocked("cloud", 2.0)
        assert reg.total_trips == 1

    def test_next_probe_at_across_breakers(self):
        reg = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                            reset_timeout_s=5.0))
        reg.get("a").record_failure(0.0)
        reg.get("b").record_failure(2.0)
        assert reg.next_probe_at(3.0) == 5.0
        assert reg.get("a").state(3.0) is BreakerState.OPEN

    def test_next_probe_none_when_healthy(self):
        reg = BreakerRegistry()
        reg.get("a")
        assert reg.next_probe_at(0.0) is None
