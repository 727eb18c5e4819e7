import math

import pytest

from repro.errors import ConfigurationError
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2) == 2.0

    @pytest.mark.parametrize("bad", [0, -1, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive("x", bad)

    def test_message_contains_name(self):
        with pytest.raises(ConfigurationError, match="speed"):
            check_positive("speed", -3)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    @pytest.mark.parametrize("bad", [-0.001, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", bad)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability("p", bad)
