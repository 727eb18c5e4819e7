"""Container lifecycle model: the cold/warm start economics of FaaS."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class ContainerModel:
    """Startup costs and keep-alive policy for one endpoint.

    ``cold_start_s`` covers image pull + runtime boot + function load;
    ``warm_start_s`` is the reuse cost of an already-provisioned
    container. After an execution the container stays warm for
    ``keep_alive_s`` before being reclaimed. ``max_warm_per_function``
    caps idle containers held per function (0 disables reuse entirely —
    the "always cold" ablation).
    """

    cold_start_s: float = 2.0
    warm_start_s: float = 0.01
    keep_alive_s: float = 300.0
    max_warm_per_function: int = 16

    def __post_init__(self):
        check_non_negative("cold_start_s", self.cold_start_s)
        check_non_negative("warm_start_s", self.warm_start_s)
        check_non_negative("keep_alive_s", self.keep_alive_s)
        if self.max_warm_per_function < 0:
            raise ConfigurationError(
                f"max_warm_per_function must be >= 0, got "
                f"{self.max_warm_per_function}"
            )


class WarmPool:
    """Expiry-tracked pool of warm containers for one function.

    Stored as a list of expiry timestamps; taking a container prefers the
    freshest (latest-expiring) entry, which maximizes reuse under bursty
    arrivals (LIFO stack discipline, as production FaaS schedulers do).
    """

    __slots__ = ("model", "_expiries")

    def __init__(self, model: ContainerModel):
        self.model = model
        self._expiries: list[float] = []

    def take_warm(self, now: float) -> bool:
        """Claim a warm container if one is live; True on success."""
        self._expire(now)
        if self._expiries:
            self._expiries.pop()  # freshest (list kept sorted ascending)
            return True
        return False

    def put_warm(self, now: float) -> None:
        """Return a container to the pool after an execution."""
        if self.model.max_warm_per_function == 0 or self.model.keep_alive_s == 0:
            return
        self._expire(now)
        expiry = now + self.model.keep_alive_s
        self._expiries.append(expiry)
        self._expiries.sort()
        if len(self._expiries) > self.model.max_warm_per_function:
            self._expiries.pop(0)  # drop the stalest

    def _expire(self, now: float) -> None:
        if self._expiries:
            self._expiries = [e for e in self._expiries if e > now]
