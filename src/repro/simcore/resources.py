"""Capacity-limited queueing built on the process machinery.

:class:`Resource` models a pool of identical servers (e.g. worker slots at
a site). It grants strictly in FIFO request order, which keeps simulated
queueing behaviour deterministic and analyzable.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.simcore.process import Waitable
from repro.utils.validation import check_positive


class Request(Waitable):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource", "n")

    def __init__(self, resource: "Resource", n: int):
        super().__init__()
        self.resource = resource
        self.n = n

    def _bind(self, sim) -> None:
        first = self._sim is None
        super()._bind(sim)
        if first:
            self.resource._enqueue(self)


class Resource:
    """FIFO multi-server resource with integer capacity.

    Usage inside a process::

        req = resource.request()
        yield req
        ... hold ...
        resource.release(req)
    """

    def __init__(self, sim, capacity: int, name: str = "resource"):
        self.sim = sim
        self.capacity = int(check_positive("capacity", capacity))
        self._capacity_area = 0.0
        self._last_capacity_change = sim.now
        self.name = name
        self.in_use = 0
        self._waiting: deque[Request] = deque()
        self._granted: set[int] = set()
        # cumulative stats for utilization reporting
        self._busy_area = 0.0
        self._last_change = sim.now
        self.total_granted = 0

    def request(self, n: int = 1) -> Request:
        """Create a claim for ``n`` units (yield it from a process)."""
        if n < 1 or n > self.capacity:
            raise SimulationError(
                f"request of {n} units on {self.name!r} with capacity {self.capacity}"
            )
        return Request(self, n)

    def release(self, req: Request) -> None:
        """Return the units held by a granted request."""
        if id(req) not in self._granted:
            raise SimulationError(f"release of a non-granted request on {self.name!r}")
        self._granted.discard(id(req))
        self._account()
        self.in_use -= req.n
        self._drain()

    def set_capacity(self, capacity: int) -> None:
        """Grow or shrink the server pool (elastic scaling).

        Growing grants queued requests immediately. Shrinking never
        preempts: units above the new capacity drain as their holders
        release, after which grants respect the new limit. Requests
        larger than the new capacity that are already queued will wait
        forever — callers scaling below their largest request size get
        what they asked for.
        """
        capacity = int(check_positive("capacity", capacity))
        self._capacity_area += self.capacity * (self.sim.now - self._last_capacity_change)
        self._last_capacity_change = self.sim.now
        self.capacity = capacity
        self._drain()

    def time_averaged_capacity(self, horizon: float | None = None) -> float:
        """Mean capacity over time (for elastic-pool cost accounting)."""
        end = self.sim.now if horizon is None else horizon
        if end <= 0:
            return float(self.capacity)
        area = self._capacity_area + self.capacity * (end - self._last_capacity_change)
        return area / end

    def cancel(self, req: Request) -> None:
        """Withdraw a request: releases it if granted, removes it from
        the wait queue if still pending. Safe for interrupt handlers
        that do not know whether their claim was granted yet."""
        if id(req) in self._granted:
            self.release(req)
            return
        try:
            self._waiting.remove(req)
        except ValueError:
            pass  # never enqueued or already granted-and-released

    def _enqueue(self, req: Request) -> None:
        self._waiting.append(req)
        self._drain()

    def _drain(self) -> None:
        while self._waiting and self.in_use + self._waiting[0].n <= self.capacity:
            req = self._waiting.popleft()
            self._account()
            self.in_use += req.n
            self._granted.add(id(req))
            self.total_granted += 1
            req._fire(value=req)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self.in_use * (now - self._last_change)
        self._last_change = now

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def utilization(self, horizon: float | None = None) -> float:
        """Time-averaged fraction of capacity busy since t=0.

        ``horizon`` defaults to the current simulated time.
        """
        end = self.sim.now if horizon is None else horizon
        if end <= 0:
            return 0.0
        area = self._busy_area + self.in_use * (end - self._last_change)
        return area / (end * self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self.in_use}/{self.capacity} "
            f"queued={len(self._waiting)}>"
        )
