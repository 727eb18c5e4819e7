"""Span collection: the :class:`Tracer` every subsystem emits into.

One tracer serves one run. Instrumented code calls ``begin``/``end``
unconditionally; a *disabled* tracer returns a shared null span and
records nothing, so tracing costs one attribute check when off.
Tracers never schedule simulation events — they only read a clock —
which is what makes observability zero-interference: a traced run is
bit-identical to an untraced one.

Clocks are late-bound: the continuum scheduler binds the tracer to its
per-run :class:`~repro.simcore.simulation.Simulator` while the run
executes and to the run's final time after, so a kept tracer holds
nothing of a finished run. The real-execution dataflow kernel leaves
the default, the wall clock. Explicit ``time=`` arguments override it.

Spans are stored as data: one flat list holds a row of atomic values
per span in begin order, the span id being the row number plus one.
``begin`` returns a live :class:`Span` that ``end`` updates; the row
holds it in its attributes slot while it is open. ``end`` and
``instant`` pack the attributes into that slot as one tuple, keys then
values, so a closed row holds atomic values only. Readers get ``Span``
objects built from the rows.
"""

from __future__ import annotations

import threading
import time as _time
from collections.abc import Callable
from functools import partial

from repro.errors import ObserveError
from repro.observe.span import Span

#: Shared sentinel returned by disabled tracers; ``end`` ignores it.
NULL_SPAN = Span(name="", category="", begin_s=0.0, span_id=0)

#: A row is the Span fields but the id: name, category, begin_s,
#: parent_id, end_s (None while open), status, instant, and the attrs
#: packed as ``(*keys, *values)``, or the live Span while open.
_WIDTH = 8


class Tracer:
    """Collects :class:`Span` trees against a pluggable clock.

    Thread-safe: the dataflow kernel ends spans from worker threads, so
    ids and rows change under one lock. ``spans`` holds every span in
    begin order; completed trees can be exported with
    :func:`repro.observe.to_chrome_trace`.
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 *, enabled: bool = True):
        self.enabled = enabled
        self.bound = False
        self._clock = _time.perf_counter
        if clock is not None:
            self.bind(clock)
        self._rows: list = []
        self._next_id = 1
        self._lock = threading.Lock()

    # -- clock ---------------------------------------------------------------
    def bind(self, clock) -> None:
        """Set the time source: a callable or anything with ``.now``."""
        if callable(clock):
            self._clock = clock
        elif hasattr(clock, "now"):
            self._clock = partial(getattr, clock, "now")
        else:
            raise ObserveError(f"cannot use {clock!r} as a tracer clock")
        self.bound = True

    def now(self) -> float:
        """Current time (wall clock until :meth:`bind` is called)."""
        return self._clock()

    # -- recording -------------------------------------------------------------
    def begin(self, name: str, category: str = "span", *,
              parent: Span | None = None, time: float | None = None,
              **attrs) -> Span:
        """Open a span; returns it (a shared null span when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        t = self._clock() if time is None else float(time)
        parent_id = None if parent is None else parent.span_id or None
        rows = self._rows
        with self._lock:
            span = Span(name, category, t, self._next_id, parent_id,
                        None, "ok", False, attrs)
            self._next_id += 1
            rows += (name, category, t, parent_id, None, "ok", False, span)
        return span

    def instant(self, name: str, category: str = "event", *,
                parent: Span | None = None, time: float | None = None,
                **attrs) -> None:
        """Record a zero-duration point event. Nothing is returned: read
        the event back through :attr:`spans`."""
        if not self.enabled:
            return
        t = self._clock() if time is None else float(time)
        parent_id = None if parent is None else parent.span_id or None
        rows = self._rows
        with self._lock:
            self._next_id += 1
            rows += (name, category, t, parent_id, t, "ok", True,
                     (*attrs, *attrs.values()) if attrs else ())

    def end(self, span: Span, *, time: float | None = None,
            status: str = "ok", **attrs) -> Span:
        """Close ``span`` at the current time, merging extra attributes."""
        if span is NULL_SPAN or span is None or not self.enabled:
            return span
        t = self._clock() if time is None else float(time)
        if t < span.begin_s:
            raise ObserveError(
                f"span {span.name!r} would end at {t} before its begin "
                f"{span.begin_s}"
            )
        row = span.span_id * _WIDTH - 1     # the attrs slot
        rows = self._rows
        with self._lock:
            try:
                live = rows[row]
            except IndexError:                 # clear() dropped it
                live = None
            if live is not span:
                raise ObserveError(f"span {span.name!r} already ended or "
                                   f"not open in this tracer")
            merged = span.attrs
            if attrs:
                merged.update(attrs)
            rows[row - 3] = t
            rows[row - 2] = status
            rows[row] = (*merged, *merged.values()) if merged else ()
        span.end_s = t
        span.status = status
        return span

    # -- retrieval ---------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every span in begin order: open ones as ``begin`` returned
        them, closed ones built from their rows."""
        with self._lock:
            rows = self._rows[:]
        return [rows[k + 7] if rows[k + 4] is None
                else Span(*rows[k:k + 3], n, *rows[k + 3:k + 7],
                          _unpack(rows[k + 7]))
                for n, k in enumerate(range(0, len(rows), _WIDTH), 1)]

    def finished(self) -> list[Span]:
        """All closed spans, in begin order."""
        return [s for s in self.spans if s.closed]

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._next_id = 1


def _unpack(packed: tuple) -> dict:
    half = len(packed) // 2
    return dict(zip(packed[:half], packed[half:]))


#: Module-level disabled tracer instrumented code defaults to.
NULL_TRACER = Tracer(enabled=False)
