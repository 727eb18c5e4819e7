"""RetryPolicy backoff/jitter determinism and RetryBudget pacing."""

import pytest

from repro.errors import ConfigurationError
from repro.resilience import RetryBudget, RetryPolicy


class TestRetryPolicy:
    def test_naive_has_zero_delay(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.0)
        assert policy.delay_s(1, key="t") == 0.0
        assert policy.delay_s(4, key="t") == 0.0

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(max_attempts=10, backoff_base_s=1.0,
                             backoff_factor=2.0, backoff_max_s=5.0)
        assert policy.delay_s(1) == 1.0
        assert policy.delay_s(2) == 2.0
        assert policy.delay_s(3) == 4.0
        assert policy.delay_s(4) == 5.0   # capped
        assert policy.delay_s(9) == 5.0

    def test_allows_retry_respects_cap(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_jitter_is_keyed_and_deterministic(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=1.0,
                             jitter_frac=0.5, seed=7)
        d1 = policy.delay_s(1, key="taskA")
        d2 = policy.delay_s(1, key="taskA")
        assert d1 == d2                       # same key, same delay
        assert d1 != policy.delay_s(1, key="taskB")
        assert d1 != policy.delay_s(2, key="taskA")
        assert 0.5 <= d1 <= 1.5

    def test_jitter_varies_with_seed(self):
        a = RetryPolicy(backoff_base_s=1.0, jitter_frac=0.5, seed=1)
        b = RetryPolicy(backoff_base_s=1.0, jitter_frac=0.5, seed=2)
        assert a.delay_s(1, key="t") != b.delay_s(1, key="t")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_frac=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay_s(0)


class TestRetryBudget:
    def test_unlimited_budget_never_denies(self):
        budget = RetryBudget(None)
        for _ in range(100):
            assert budget.acquire()
        assert budget.spent == 100
        assert budget.denied == 0

    def test_exhaustion_denies_but_counts(self):
        budget = RetryBudget(2, cooldown_s=7.5)
        assert budget.acquire()
        assert budget.acquire()
        assert not budget.acquire()
        assert not budget.acquire()
        assert budget.spent == 2
        assert budget.denied == 2
        assert budget.cooldown_s == 7.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryBudget(-1)
