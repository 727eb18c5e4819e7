"""Generator-based processes and the waitables they ``yield``.

A process body is a Python generator. Each ``yield`` hands the kernel a
:class:`Waitable`; the process resumes when that waitable *fires*, with
``yield``'s value being the waitable's result:

    def worker(sim, resource):
        req = resource.request()
        yield req                     # queue for capacity
        yield Timeout(1.5)            # hold it for 1.5 simulated seconds
        resource.release(req)
        return "done"

Processes themselves are waitables, so ``yield other_process`` joins it and
receives its return value (or re-raises its exception).
"""

from __future__ import annotations

import math
from collections.abc import Generator

from repro.errors import SimulationError


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause=None):
        self.cause = cause
        super().__init__(cause)


class Waitable:
    """Base class for everything a process may ``yield``.

    A waitable is *fired* at most once with either a value or an
    exception; subscribed processes are resumed in subscription order.
    """

    __slots__ = ("_sim", "_fired", "_value", "_exc", "_waiters")

    def __init__(self) -> None:
        self._sim = None
        self._fired = False
        self._value = None
        self._exc: BaseException | None = None
        self._waiters: list = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self):
        if not self._fired:
            raise SimulationError("waitable has not fired yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- kernel interface ---------------------------------------------------
    def _bind(self, sim) -> None:
        """Attach to a simulator; idempotent, rejects rebinding."""
        if self._sim is None:
            self._sim = sim
        elif self._sim is not sim:
            raise SimulationError("waitable bound to a different simulator")

    def _subscribe(self, callback) -> None:
        """Register ``callback(waitable)`` to run when this fires."""
        if self._fired:
            self._sim._immediate(callback, self)
        else:
            self._waiters.append(callback)

    def _fire(self, value=None, exc: BaseException | None = None) -> None:
        if self._fired:
            return
        self._fired = True
        self._value = value
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self._sim._immediate(callback, self)


class Timeout(Waitable):
    """Fires ``delay`` seconds after the process yields it."""

    __slots__ = ("delay", "result")

    def __init__(self, delay: float, result=None):
        super().__init__()
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(
                f"negative or non-finite timeout delay: {delay}"
            )
        self.delay = float(delay)
        self.result = result

    def _bind(self, sim) -> None:
        first = self._sim is None
        super()._bind(sim)
        if first:
            # Pooled wakeup: no caller holds the queue event, and a
            # zero-delay timeout takes the same-instant ready lane.
            sim._wakeup(self.delay, self._fire, (self.result,))


class Signal(Waitable):
    """A manually-triggered waitable (condition-variable flavour).

    Create it bound to a simulator, hand it to any number of processes,
    and call :meth:`trigger` (or :meth:`fail`) once.
    """

    def __init__(self, sim=None):
        super().__init__()
        if sim is not None:
            self._sim = sim

    def trigger(self, value=None) -> None:
        if self._sim is None:
            raise SimulationError("signal not bound to a simulator yet")
        self._fire(value=value)

    def fail(self, exc: BaseException) -> None:
        if self._sim is None:
            raise SimulationError("signal not bound to a simulator yet")
        self._fire(exc=exc)


class AllOf(Waitable):
    """Fires when all children fire; value is the list of child values.

    Fails fast with the first child exception.
    """

    __slots__ = ("children", "_pending")

    def __init__(self, children):
        super().__init__()
        self.children = list(children)
        self._pending = len(self.children)

    def _bind(self, sim) -> None:
        first = self._sim is None
        super()._bind(sim)
        if not first:
            return
        if not self.children:
            sim._immediate(lambda _w: self._fire([]), self)
            return
        for child in self.children:
            child._bind(sim)
            child._subscribe(self._on_child)

    def _on_child(self, child: Waitable) -> None:
        if self._fired:
            return
        if child._exc is not None:
            self._fire(exc=child._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self._fire([c._value for c in self.children])


class Process(Waitable):
    """A running generator; fires on return (joinable, interruptible)."""

    __slots__ = ("gen", "name", "_current_wait")

    def __init__(self, gen: Generator, name: str = ""):
        super().__init__()
        if not isinstance(gen, Generator):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}"
            )
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._current_wait: Waitable | None = None

    @property
    def alive(self) -> bool:
        return not self._fired

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._fired:
            return
        if self._sim is None:
            raise SimulationError("cannot interrupt an unstarted process")
        # Stop listening to whatever it was waiting on, then resume it
        # with the interrupt at the current simulated instant.
        wait = self._current_wait
        self._current_wait = None
        exc = Interrupt(cause)
        self._sim._immediate(self._resume_with_exc, (wait, exc))

    def _resume_with_exc(self, payload) -> None:
        wait, exc = payload
        if self._fired:
            return
        self._step(None, exc, expected_wait=wait)

    # -- kernel driving ------------------------------------------------------
    def _bind(self, sim) -> None:
        first = self._sim is None
        super()._bind(sim)
        if first:
            sim._immediate(lambda _w: self._step(None, None), self)

    def _on_wait_fired(self, wait: Waitable) -> None:
        if self._fired or wait is not self._current_wait:
            return  # stale wake-up (e.g. interrupted meanwhile)
        self._current_wait = None
        self._step(wait._value, wait._exc, expected_wait=None)

    def _step(self, value, exc, expected_wait=None) -> None:
        try:
            if exc is not None:
                yielded = self.gen.throw(exc)
            else:
                yielded = self.gen.send(value)
        except StopIteration as stop:
            self._fire(value=stop.value)
            return
        except Interrupt as unhandled:
            self._fire(exc=unhandled)
            return
        except Exception as failure:
            self._fire(exc=failure)
            return

        if not isinstance(yielded, Waitable):
            err = SimulationError(
                f"process {self.name!r} yielded {yielded!r}; expected a Waitable"
            )
            self.gen.close()
            self._fire(exc=err)
            return
        yielded._bind(self._sim)
        self._current_wait = yielded
        yielded._subscribe(self._on_wait_fired)
