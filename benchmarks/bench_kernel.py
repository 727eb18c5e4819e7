"""Event-kernel microbenchmarks: the production kernel against the seed.

Two kernels are timed against each other:

- the frozen **seed** kernel (``tests/oracles/seed_kernel.py``, shared
  with the kernel differential tests: tuple-allocating ``__lt__``,
  peek+pop double traversal in ``run``, no compaction, no same-instant
  lane);
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
import json
import os
import platform
import statistics
import sys
from datetime import datetime, timezone

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.continuum import zoo_topology
from repro.core import ContinuumScheduler, GreedyEFTStrategy
from repro.faults import ChaosCampaign
from repro.observe import Tracer
from repro.observe.recorder import MetricsRecorder
from repro.resilience import ResiliencePolicy
from repro.simcore import Simulator, Timeout
from repro.workloads import layered_random_dag
from tests.oracles import RefSimulator
from timing import best_of, timed_rounds

#: Relative overhead the tracer guard tolerates, median of 15 rounds.
#: On a shared 2-vCPU host (Python 3.11) the tracer read -2% to +13%
#: over 28 runs; with every begin/end/instant doing its recording work
#: twice it read +18% to +31% over 20 runs.
TRACER_THRESHOLD = 0.16


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


def _overhead_guard(name: str, drive, what: str, repeat: int,
                    threshold: float) -> dict:
    """Call ``drive(False)`` and ``drive(True)`` in turn for ``repeat``
    rounds and gate on the median of the per-round instrumented/bare
    ratios. A best-of per side failed 1 of 20 runs at an unchanged
    kernel on a shared 2-vCPU host: a burst of noise longer than the
    instrumented side's calls is enough to move a best-of, but it moves
    one round's ratio only."""
    (bare_s, bare_obs), (inst_s, inst_obs) = timed_rounds(
        [lambda: drive(False), lambda: drive(True)], repeat)
    if bare_obs != inst_obs:
        raise AssertionError(
            f"{name}: {what} changed the simulation — bare observed "
            f"{bare_obs}, instrumented {inst_obs}")
    overhead = statistics.median(
        m / b for b, m in zip(bare_s, inst_s)) - 1.0
    return {
        "name": name,
        "rounds": repeat,
        "bare_s": round(statistics.median(bare_s), 6),
        "instrumented_s": round(statistics.median(inst_s), 6),
        "overhead": round(overhead, 4),
        "threshold": threshold,
        "ok": overhead < threshold,
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
            rec = MetricsRecorder()
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

    return _overhead_guard("metrics_overhead_watchdog_churn", drive,
                           "recorder", repeat, threshold)


def tracer_overhead_guard(repeat: int) -> dict:
    """Time one small scheduler run bare vs with a :class:`Tracer`, so
    a change that makes ``begin``/``end``/``instant`` dearer per call
    fails here before it shows in a traced benchmark. The run is the
    ``repro chaos`` shape: a high chaos campaign under the full
    resilience policy, so fault and recovery instants are traced too."""
    topo = zoo_topology("multi-region", seed=0)
    dag, externals = layered_random_dag(150, n_levels=6, seed=3,
                                        name="tracer-guard")
    sites = [s.name for s in topo.sites if s.tier.is_peripheral]
    placed = [(d, sites[k % len(sites)]) for k, d in enumerate(externals)]
    plan = ChaosCampaign.preset("high", seed=3).build(topo)

    def drive(traced: bool):
        result = ContinuumScheduler(
            topo, seed=3, transfer_failure_prob=plan.transfer_failure_prob,
            transfer_max_attempts=10,
        ).run(dag, GreedyEFTStrategy(), external_inputs=placed,
              failures=plan.outages, chaos=plan.task_chaos,
              resilience=ResiliencePolicy.full(max_attempts=100, seed=3),
              task_retries=100, tracer=Tracer() if traced else None)
        return result.makespan, len(result.records)

    return _overhead_guard("tracer_overhead_chaos_run", drive, "tracer",
                           repeat, TRACER_THRESHOLD)


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
    parser.add_argument("--tracer-guard", action="store_true",
                        help="only run the tracer-overhead guard; exit 1 "
                             "if tracing a scheduler run slows it by "
                             f"{TRACER_THRESHOLD * 100:.0f}%% or more; the "
                             "threshold was set with --repeat 15")
    args = parser.parse_args(argv)
    if args.metrics_guard or args.tracer_guard:
        if args.tracer_guard:
            row = tracer_overhead_guard(repeat=args.repeat)
        else:
            row = metrics_overhead_guard(repeat=args.repeat,
                                         threshold=args.metrics_threshold)
        print(f"{row['name']:<34} bare {row['bare_s']:.4f}s  "
              f"instrumented {row['instrumented_s']:.4f}s  "
              f"overhead {row['overhead']:+.1%} "
              f"(median of {row['rounds']} rounds, "
              f"threshold {row['threshold']:.0%}) "
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
