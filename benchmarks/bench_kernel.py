"""Event-kernel microbenchmarks: the production kernel against the seed.

Two kernels are timed against each other:

- the frozen **seed** kernel (faithful copy below: tuple-allocating
  ``__lt__``, peek+pop double traversal in ``run``, no compaction, no
  same-instant lane);
- the production kernel (:class:`~repro.simcore.Simulator` on its
  default ``EventQueue``: allocation-free compare, single-pop run loop,
  lazy-cancel compaction, same-instant ready lane).

Each workload is a simulator-level scenario that stresses one hot path.

Run as a script to refresh the machine-readable perf trajectory::

    PYTHONPATH=src python benchmarks/bench_kernel.py --out BENCH_kernel.json

Every workload cross-checks determinism: both kernels must fire the
same number of events and finish at the same simulated clock. Each
side is timed by ``timing.best_of`` (the rule ``bench_fairness`` uses:
best of at least ``repeat`` calls and of at least 0.05 s of calls),
with seed and production calls alternating so host drift hits both.
GC is disabled inside the timed regions (event churn otherwise spends
a run-to-run-variable fraction of its time in gen-2 collections —
noise, not kernel signal).
"""

from __future__ import annotations

import argparse
import heapq
import json
import platform
import sys
from datetime import datetime, timezone

from repro.observe.recorder import MetricsRecorder
from repro.simcore import Simulator, Timeout
from repro.simcore.process import Process
from timing import best_of


# ---------------------------------------------------------------------------
# Frozen reference kernel (the seed implementation, verbatim semantics).
# ---------------------------------------------------------------------------

class RefEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time, seq, callback, args=()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class RefEventQueue:
    """Binary heap with lazy cancellation — no compaction."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0

    def push(self, time, callback, args=()):
        event = RefEvent(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                self._live -= 1
                return event
        raise RuntimeError("pop from empty event queue")

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def note_cancelled(self):
        self._live -= 1

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0


class RefSimulator:
    """The seed event loop: peek_time + pop per iteration, all events
    through the heap. Exposes the same internal surface the process
    machinery uses (``_immediate``, ``_wakeup``, ``_queue``)."""

    def __init__(self, start_time=0.0):
        self._queue = RefEventQueue()
        self._now = float(start_time)
        self._processes_started = 0
        self.event_count = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback, *args):
        return self._queue.push(self._now + delay, callback, args)

    def cancel(self, event):
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    def _immediate(self, callback, arg):
        self._queue.push(self._now, callback, (arg,))

    def _wakeup(self, delay, callback, args):
        self._queue.push(self._now + delay, callback, args)

    def process(self, gen, name=""):
        proc = Process(gen, name=name)
        proc._bind(self)
        self._processes_started += 1
        return proc

    def step(self):
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        self.event_count += 1
        event.callback(*event.args)
        return True

    def run(self, until=None):
        while self._queue:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self._now = max(self._now, until)
                break
            self.step()
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now


# ---------------------------------------------------------------------------
# Workloads — each drives one kernel through a hot-path-heavy scenario
# and returns (event_count, final_clock) for the determinism cross-check.
# ---------------------------------------------------------------------------

def timeout_watchdog_churn(sim_cls):
    """The resilience-layer pattern: every attempt arms a long watchdog
    timeout, almost every attempt beats it, so the heap fills with
    lazily-cancelled events while live traffic keeps flowing."""
    sim = sim_cls()

    def attempt_loop(n):
        for i in range(n):
            watchdog = sim.schedule(300.0, lambda: None)
            yield Timeout(0.5)
            if i % 25 != 0:     # 96% of attempts beat their watchdog
                sim.cancel(watchdog)

    for _ in range(40):
        sim.process(attempt_loop(500))
    sim.run()
    return sim.event_count, sim.now


def process_wakeup_storm(sim_cls):
    """Context-switch-heavy: many short-timeout processes, the
    subscribe/fire/resume cycle dominates (same-instant lane traffic)."""
    sim = sim_cls()

    def ticker(n):
        for _ in range(n):
            yield Timeout(1.0)

    for _ in range(100):
        sim.process(ticker(200))
    sim.run()
    return sim.event_count, sim.now


def zero_delay_cascade(sim_cls):
    """Same-instant chains (signal fan-out shape): zero-delay timeouts
    that the ready lane keeps out of the heap entirely."""
    sim = sim_cls()

    def chain(n):
        for _ in range(n):
            yield Timeout(0.0)
        yield Timeout(1.0)

    for _ in range(50):
        sim.process(chain(300))
    sim.run()
    return sim.event_count, sim.now


def run_until_slices(sim_cls):
    """Time-sliced driving (the scheduler's probe/step shape): the seed
    loop pays peek_time + pop per event, the fast path pays one pop."""
    sim = sim_cls()
    for i in range(8000):
        sim.schedule(float(i) * 0.25, lambda: None)
    for t in range(2001):
        sim.run(until=float(t))
    return sim.event_count, sim.now


# Simulator-level workloads: default kernel vs the frozen seed kernel.
WORKLOADS = [
    ("timeout_watchdog_churn", timeout_watchdog_churn),
    ("process_wakeup_storm", process_wakeup_storm),
    ("zero_delay_cascade", zero_delay_cascade),
    ("run_until_slices", run_until_slices),
]


def _compare(name, workload, baseline_arg, optimized_arg, baseline, reps):
    (base_s, _, base_obs), (opt_s, _, opt_obs) = best_of(
        [lambda: workload(baseline_arg), lambda: workload(optimized_arg)],
        reps)
    if base_obs != opt_obs:
        raise AssertionError(
            f"{name}: kernels diverged — baseline observed {base_obs}, "
            f"optimized {opt_obs}"
        )
    events = opt_obs[0]
    return {
        "name": name,
        "baseline": baseline,
        "events": events,
        "reference_s": round(base_s, 6),
        "optimized_s": round(opt_s, 6),
        "speedup": round(base_s / opt_s, 3),
        "optimized_events_per_s": round(events / opt_s),
    }


def metrics_overhead_guard(repeat: int = 5,
                           threshold: float = 0.10) -> dict:
    """Time the watchdog-churn workload bare vs with an attached
    :class:`MetricsRecorder` (the exact probe set the continuum
    scheduler installs). The recorder costs one attribute compare per
    dispatched event; this guard pins that at < ``threshold`` relative
    overhead so instrumentation can never quietly tax the kernel."""

    def drive(metered: bool):
        sim = Simulator()
        if metered:
            rec = MetricsRecorder(interval_s=1.0)
            rec.add_probe("kernel_queue_depth", sim._queue.__len__)
            rec.add_probe("kernel_events_dispatched",
                          lambda: sim.event_count)
            sim.attach_recorder(rec)

        def attempt_loop(n):
            for i in range(n):
                watchdog = sim.schedule(300.0, lambda: None)
                yield Timeout(0.5)
                if i % 25 != 0:
                    sim.cancel(watchdog)

        for _ in range(40):
            sim.process(attempt_loop(500))
        sim.run()
        return sim.event_count, sim.now

    # Interleave bare/metered repetitions so CPU frequency drift and
    # cache warm-up hit both sides equally; compare the best of each.
    (bare_s, _, bare_obs), (metered_s, _, metered_obs) = best_of(
        [lambda: drive(False), lambda: drive(True)], repeat)
    if bare_obs != metered_obs:
        raise AssertionError(
            f"metrics guard: recorder changed the simulation — bare "
            f"observed {bare_obs}, metered {metered_obs}")
    overhead = metered_s / bare_s - 1.0
    return {
        "name": "metrics_overhead_watchdog_churn",
        "events": bare_obs[0],
        "bare_s": round(bare_s, 6),
        "metered_s": round(metered_s, 6),
        "overhead": round(overhead, 4),
        "threshold": threshold,
        "ok": overhead < threshold,
    }


def run_benchmarks(repeat: int = 5, quick: bool = False) -> dict:
    rows = []
    # quick still does at least best-of-2, as bench_fairness does: one
    # call per side read zero_delay_cascade's ratio 0.68 against its
    # 0.70 floor in one of ten quick runs
    reps = min(2, repeat) if quick else repeat
    for name, workload in WORKLOADS:
        def sim_workload(sim_cls, workload=workload):
            return workload(sim_cls)
        rows.append(_compare(name, sim_workload, RefSimulator, Simulator,
                             "seed-kernel", reps))
    return {
        "schema": "repro-bench-kernel/2",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": repeat,
        "benchmarks": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_kernel")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI smoke)")
    parser.add_argument("--metrics-guard", action="store_true",
                        help="only run the metrics-overhead guard; "
                             "exit 1 if attaching a recorder slows the "
                             "kernel past the threshold")
    parser.add_argument("--metrics-threshold", type=float, default=0.10,
                        metavar="FRAC",
                        help="max tolerated relative overhead "
                             "(default 0.10)")
    args = parser.parse_args(argv)
    if args.metrics_guard:
        row = metrics_overhead_guard(repeat=args.repeat,
                                     threshold=args.metrics_threshold)
        print(f"{row['name']:<34} bare {row['bare_s']:.4f}s  "
              f"metered {row['metered_s']:.4f}s  "
              f"overhead {row['overhead']:+.1%} "
              f"(threshold {row['threshold']:.0%}) "
              f"{'OK' if row['ok'] else 'FAIL'}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(row, handle, indent=2)
                handle.write("\n")
        return 0 if row["ok"] else 1
    report = run_benchmarks(repeat=args.repeat, quick=args.quick)
    for row in report["benchmarks"]:
        print(f"{row['name']:<26} vs {row['baseline']:<11} "
              f"ref {row['reference_s']:.4f}s  "
              f"opt {row['optimized_s']:.4f}s  "
              f"speedup {row['speedup']:.2f}x  "
              f"({row['optimized_events_per_s']:,.0f} events/s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
