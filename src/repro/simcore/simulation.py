"""The event loop: :class:`Simulator`."""

from __future__ import annotations

from math import inf, isfinite
from collections.abc import Callable, Generator

from repro.errors import SimulationError
from repro.simcore.event import Event, EventQueue
from repro.simcore.process import Process, Signal, Timeout, Waitable


class Simulator:
    """Deterministic discrete-event loop with a float clock (seconds).

    Typical use::

        sim = Simulator()
        sim.process(my_generator(sim))
        sim.run()                      # until no events remain
        print(sim.now)
    """

    def __init__(self, start_time: float = 0.0, queue: EventQueue | None = None):
        # `queue` swaps the scheduler implementation (default: the
        # calendar queue; the kernel differential tests and benchmarks
        # pass the frozen heap kernel from `tests/oracles/`). Any
        # implementation must preserve global (time, seq) FIFO order.
        self._queue = queue if queue is not None else EventQueue()
        self._now = float(start_time)
        self._running = False
        self._processes_started = 0
        self.event_count = 0
        self._recorder = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0 or not isfinite(delay):
            # NaN compares False against everything, so a plain `< 0`
            # check would wave NaN through and corrupt heap order.
            raise SimulationError(f"cannot schedule at non-finite or past "
                                  f"time (delay={delay})")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now or not isfinite(time):
            raise SimulationError(
                f"cannot schedule at non-finite or past time "
                f"(t={time}, now={self._now})"
            )
        return self._queue.push(time, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op if it already fired/cancelled)."""
        if not event.cancelled:
            event.cancelled = True
            self._queue.note_cancelled()

    def _immediate(self, callback: Callable, arg) -> None:
        """Schedule ``callback(arg)`` at the current instant (after events
        already queued for this instant — preserves FIFO causality)."""
        self._queue.push_ready(self._now, callback, (arg,))

    def _wakeup(self, delay: float, callback: Callable, args: tuple) -> None:
        """Kernel-internal deferred callback (e.g. a Timeout firing).

        No reference escapes, so the event is pooled; zero-delay wakeups
        take the same-instant ready lane and skip the heap entirely.
        """
        if delay == 0.0:
            self._queue.push_ready(self._now, callback, args)
        else:
            self._queue.push_pooled(self._now + delay, callback, args)

    # -- processes & waitables ------------------------------------------------
    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns the joinable Process."""
        proc = Process(gen, name=name)
        proc._bind(self)
        self._processes_started += 1
        return proc

    def timeout(self, delay: float, result=None) -> Timeout:
        """Create a bound :class:`Timeout` (usable outside a process)."""
        t = Timeout(delay, result)
        t._bind(self)
        return t

    def signal(self) -> Signal:
        """Create a bound :class:`Signal`."""
        return Signal(self)

    # -- observability --------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`~repro.observe.recorder.MetricsRecorder` to
        be ticked from the dispatch loop whenever the clock reaches its
        ``next_t``. Recorders are clock-passive — they sample probe
        callables but never schedule events — so attaching one cannot
        change any simulation outcome. Costs one ``is not None`` check
        per event when detached."""
        self._recorder = recorder

    # -- running ---------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        """Advance the clock to ``event`` and run its callback."""
        if event.time < self._now:
            raise SimulationError("event queue produced a time in the past")
        self._now = event.time
        self.event_count += 1
        event.callback(*event.args)
        if event.pooled:
            self._queue.recycle(event)
        else:
            # A caller may still hold this event and cancel() it later;
            # marking it cancelled keeps that a true no-op instead of
            # corrupting the queue's dead-entry accounting.
            event.cancelled = True

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        event = self._queue._pop_or_none()
        if event is None:
            return False
        self._dispatch(event)
        rec = self._recorder
        if rec is not None and self._now >= rec.next_t:
            rec.tick(self._now)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` more events have fired. Returns the final clock.

        When stopping at ``until`` the clock is advanced to exactly
        ``until`` (events beyond it remain queued).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        fired = 0
        queue = self._queue
        pop = queue._pop_or_none
        recycle = queue.recycle
        rec = self._recorder
        # Hoisted next-tick time: the hot loop pays one local float
        # compare per event instead of a None check + attribute load.
        rec_next = rec.next_t if rec is not None else inf
        drained = False
        try:
            # Single-pop loop: each iteration pays one heap/lane pop;
            # the one event that overshoots `until` (or lands after a
            # max_events stop) is pushed back with its seq intact.
            while True:
                event = pop()
                if event is None:
                    drained = True
                    break
                time = event.time
                if until is not None and time > until:
                    queue.push_back(event)
                    if until > self._now:
                        self._now = until
                    break
                if max_events is not None and fired >= max_events:
                    queue.push_back(event)
                    break
                if time < self._now:
                    raise SimulationError(
                        "event queue produced a time in the past"
                    )
                self._now = time
                fired += 1
                event.callback(*event.args)
                if event.pooled:
                    recycle(event)
                else:
                    event.cancelled = True
                if time >= rec_next:
                    # Fold fired-so-far into event_count first so gauge
                    # probes reading it observe the live total.
                    self.event_count += fired
                    fired = 0
                    rec.tick(time)
                    rec_next = rec.next_t
            if drained and until is not None and until > self._now:
                self._now = until
        finally:
            self.event_count += fired
            self._running = False
        return self._now

    def run_process(self, gen: Generator, until: float | None = None):
        """Convenience: start ``gen``, run, and return its result.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if the simulation drained before the
        process finished (deadlock).
        """
        proc = self.process(gen)
        self.run(until=until)
        if not proc.fired:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock or until-limit)"
            )
        return proc.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.6g} pending={len(self._queue)}>"
