"""Argument-validation helpers that raise :class:`ConfigurationError`.

Centralizing the checks keeps error messages uniform ("<name> must be
positive, got <value>") across every constructor in the library.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and finite; return it as float."""
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` and finite; return it as float."""
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be non-negative and finite, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as float."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return value
