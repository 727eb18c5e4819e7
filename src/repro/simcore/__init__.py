"""Discrete-event simulation kernel (SimPy-flavoured, self-contained).

The kernel provides:

- :class:`Simulator` — event loop with a float simulated clock,
- :class:`Process` — generator-based coroutine processes,
- waitables (:class:`Timeout`, :class:`Signal`, :class:`AllOf`) that
  processes ``yield`` to suspend,
- :class:`Resource` — a capacity-limited FIFO queueing primitive.

Run telemetry does not live here: spans go through
:class:`repro.observe.Tracer` and counters through
:class:`repro.observe.MetricsRegistry`.

Determinism: events at equal times fire in schedule order (a monotonic
sequence number breaks ties), so a simulation is a pure function of its
inputs and seeds.
"""

from repro.simcore.event import Event, EventQueue
from repro.simcore.simulation import Simulator
from repro.simcore.process import (
    Process,
    Timeout,
    Signal,
    AllOf,
    Interrupt,
    Waitable,
)
from repro.simcore.resources import Resource, Request

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Process",
    "Timeout",
    "Signal",
    "AllOf",
    "Interrupt",
    "Waitable",
    "Resource",
    "Request",
]
