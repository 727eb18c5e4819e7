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
        # binary heap plus ready lane; the kernel differential tests
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

    @property
    def pending(self) -> int:
        """Live events still queued."""
        return len(self._queue)

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
        """Deferred callback that is never cancelled: a Timeout firing,
        or a zero-delay hop such as a deferred rate solve or dispatch.

        Zero-delay wakeups take the same-instant ready lane and skip the
        heap entirely.
        """
        if delay == 0.0:
            self._queue.push_ready(self._now, callback, args)
        else:
            self._queue.push(self._now + delay, callback, args)

    def _stamp(self) -> int:
        """Kernel-internal: reserve the next seq for a later
        :meth:`_schedule_stamped` push."""
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        return seq

    def _schedule_stamped(self, time: float, seq: int, callback: Callable) -> Event:
        """Kernel-internal: run ``callback()`` at absolute ``time`` under a
        seq from :meth:`_stamp`, so it sorts as if pushed when stamped. A
        key may be pushed again after its earlier event was cancelled."""
        if time < self._now or not isfinite(time):
            raise SimulationError(
                f"cannot schedule at non-finite or past time "
                f"(t={time}, now={self._now})"
            )
        event = Event(time, seq, callback)
        self._queue.push_back(event)
        return event

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

    def emit_metrics(self, registry) -> None:
        """Emit kernel and queue counters and the last dispatch rate."""
        registry.emit((
            ("sim_events_dispatched_total", "Events dispatched by the kernel",
             self.event_count),
            ("sim_simulated_seconds_total", "Simulated seconds advanced",
             self._now),
        ))
        self._queue.emit_metrics(registry)
        if self._now > 0:
            registry.emit([("kernel_events_per_sim_second",
                            "Dispatch rate of the last run, per simulated "
                            "second", self.event_count / self._now)],
                          kind="gauge")

    # -- running ---------------------------------------------------------------
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
                # a caller may still hold this event and cancel() it
                # later; marking it keeps that a true no-op
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
        return f"<Simulator now={self._now:.6g} pending={self.pending}>"
