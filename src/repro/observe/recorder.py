"""Run-scoped gauge sampling on simulated-clock ticks.

A :class:`MetricsRecorder` is attached to a
:class:`~repro.simcore.simulation.Simulator` by the continuum scheduler
when metrics are enabled. The kernel's dispatch loop checks
``now >= recorder.next_t`` once per event (one attribute compare) and
calls :meth:`tick`, which reads every registered *probe* — a plain
callable like ``lambda: len(queue)`` — and appends ``(sim_time, value)``
to that probe's timeseries.

The recorder is clock-passive: it never schedules events, so attaching
one cannot change event order, sequence numbers, or any simulation
output. Sample count is bounded by deterministic interval doubling —
when a series exceeds ``max_samples``, every other sample is dropped and
the sampling interval doubles, which keeps long runs at bounded memory
while remaining a pure function of simulated time.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ObserveError


class MetricsRecorder:
    """Samples gauge probes into timeseries on sim-clock ticks."""

    __slots__ = ("interval_s", "max_samples", "next_t", "series", "_probes")

    def __init__(self, *, interval_s: float = 1.0, max_samples: int = 512):
        if interval_s <= 0:
            raise ObserveError(f"recorder interval must be positive, "
                               f"got {interval_s}")
        if max_samples < 4:
            raise ObserveError(f"recorder max_samples must be >= 4, "
                               f"got {max_samples}")
        self.interval_s = float(interval_s)
        self.max_samples = int(max_samples)
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
        if probes and len(probes[0][1]) > self.max_samples:
            self._decimate()

    def _decimate(self) -> None:
        # Keep every other sample (the odd positions), in place so each
        # probe keeps its list, and double the interval; purely a
        # function of sample count, hence deterministic.
        for pts in self.series.values():
            if len(pts) > 1:
                del pts[::2]
        self.interval_s *= 2.0

    def sample_count(self) -> int:
        return len(self._probes[0][1]) if self._probes else 0


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
