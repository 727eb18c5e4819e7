"""Run-scoped gauge sampling on simulated-clock ticks.

A :class:`MetricsRecorder` is attached to a
:class:`~repro.simcore.simulation.Simulator` by the continuum scheduler
when the run's metrics registry keeps timeseries. The kernel's dispatch
loop checks ``now >= recorder.next_t`` once per event (one attribute
compare) and calls :meth:`tick`, which reads every registered *probe* —
a plain callable like ``lambda: len(queue)`` — and appends
``(sim_time, value)`` to that probe's timeseries.

The recorder is clock-passive: it never schedules events, so attaching
one cannot change event order, sequence numbers, or any simulation
output. Sampling starts every :data:`INTERVAL_S` simulated seconds.
Sample count is bounded by deterministic interval doubling — when a
series exceeds :data:`MAX_SAMPLES`, every other sample is dropped and
the sampling interval doubles, which keeps long runs at bounded memory
while remaining a pure function of simulated time.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ObserveError

#: Simulated seconds between samples until the first decimation.
INTERVAL_S = 1.0
#: Samples a series may hold before every other one is dropped.
MAX_SAMPLES = 512


class MetricsRecorder:
    """Samples gauge probes into timeseries on sim-clock ticks."""

    __slots__ = ("interval_s", "next_t", "series", "_probes")

    def __init__(self):
        self.interval_s = INTERVAL_S
        #: Next simulated time at/after which the kernel should tick us.
        self.next_t = 0.0
        self.series: dict[str, list[tuple[float, float]]] = {}
        # (probe, its own series list), in registration order
        self._probes: list[tuple[Callable[[], float], list]] = []

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register ``fn`` to be sampled as timeseries ``name``."""
        if name in self.series:
            raise ObserveError(f"duplicate recorder probe {name!r}")
        self._probes.append((fn, self.series.setdefault(name, [])))

    def tick(self, now: float) -> None:
        """Sample every probe at simulated time ``now``; called by the
        kernel dispatch loop when ``now >= next_t``."""
        probes = self._probes
        for fn, pts in probes:
            pts.append((now, float(fn())))
        self.next_t = now + self.interval_s
        if probes and len(probes[0][1]) > MAX_SAMPLES:
            self._decimate()

    def _decimate(self) -> None:
        # Keep every other sample (the odd positions), in place so each
        # probe keeps its list, and double the interval; purely a
        # function of sample count, hence deterministic.
        for pts in self.series.values():
            if len(pts) > 1:
                del pts[::2]
        self.interval_s *= 2.0


def series_counter_events(series: dict[str, list[tuple[float, float]]],
                          *, pid: int = 0, tid: int = 0) -> list[dict]:
    """Chrome trace-event counter records (``"ph": "C"``), one per
    sample, from a ``name -> [(t, v), ...]`` mapping: a recorder's
    ``series``, or the copy a registry keeps under ``keep_timeseries``."""
    events = []
    for name in sorted(series):
        for t, v in series[name]:
            events.append({
                "name": name,
                "ph": "C",
                "ts": t * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"value": v},
            })
    events.sort(key=lambda e: (e["ts"], e["name"]))
    return events
