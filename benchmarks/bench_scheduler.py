"""Scheduler dispatch-rate microbenchmarks: wave engine vs scalar oracle.

The continuum scheduler's hot path is the placement loop — for each
ready task, rank every candidate site by estimated finish time, reserve
the winner, emit a decision. Wave-batched dispatch attacks that loop
with memoized cost rows (tasks sharing an input signature reuse one
numpy row) and incrementally-maintained availability vectors; the
frozen scalar loop (``tests/oracles/dispatch.py``, row memo disabled)
is kept as the in-run reference, exactly as the kernel benchmarks keep
the seed kernel.

Each workload builds a real scheduler run (``_Run``) whose attempts
never start, and drives the run's own dispatch round by round, its
clock advanced through its kernel: real strategies, context, cost model
and placement hooks, no transfer or execution, so the measured gap is
pure placement work. The reference side is built and dispatched inside
``scalar_engine()``, the switch the whole-table differential uses.
Building a run is not timed. Every workload cross-checks correctness:
both engines must produce the identical ``PlacementDecision`` stream,
bit for bit.

Run as a script to refresh the machine-readable perf trajectory::

    PYTHONPATH=src python benchmarks/bench_scheduler.py --out BENCH_scheduler.json

GC is disabled inside the timed regions (decision/task churn otherwise
spends a run-to-run-variable fraction in gen-2 collections).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from functools import cache

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.continuum import geo_random_continuum
from repro.core.scheduler import ContinuumScheduler, StreamJob, _Run
from repro.core.strategies import DataGravityStrategy, GreedyEFTStrategy
from repro.datafabric import Dataset
from repro.faults import OutageSchedule, SiteOutage
from repro.workflow import TaskSpec, WorkflowDAG
from tests.oracles import per_input_staging, scalar_engine


class _PlacementRun(_Run):
    """A real scheduler run whose attempts never start: attempts are
    simulation, and these benchmarks measure placement only. Its breaker
    veto set is the current round's."""

    vetoed = frozenset()

    def _start_attempt(self, task, site_name, decision, is_hedge=False):
        pass

    def _breaker_vetoes(self):
        return self.vetoed


def _arrived(world, strategy, failures=None):
    """A run of the world's one job, arrived at t=0: its replicas are in
    the catalog, and its ready tasks are held back for the workload's
    rounds. Returns the run and the held tasks."""
    sched, dag, inputs = world
    run = _PlacementRun(sched, [StreamJob(0.0, dag, inputs)], strategy,
                        failures=failures, keep_decisions=True)
    run._arm_failures()
    run._job_arrives(0)
    held, run.ready = run.ready, []
    return run, held


def _place(run, rounds):
    """Drive the run's own dispatch: each ``(at, batch, vetoed)`` round
    advances the kernel to ``at`` (firing the outages and replica
    arrivals due by then), makes ``batch`` ready under the ``vetoed``
    set and dispatches it. Returns the decision stream."""
    for at, batch, vetoed in rounds:
        run.sim.run(until=at)
        run.vetoed = vetoed
        run.ready.extend(batch)
        run._dispatch()
    return run.decisions


# Worlds are prebuilt immutable workload inputs, cached and shared by
# the scalar and wave timings (and across repeats): task and DAG
# construction and route warm-up are identical costs on both sides, so
# keeping them inside the timed region would only dilute the
# dispatch-rate ratio being measured.

def _scheduler():
    topo = geo_random_continuum(24, seed=3)
    topo.path_block(topo.site_names, [0])   # fills every source's row
    return ContinuumScheduler(topo)


@cache
def _campaign_world(n_tasks, n_signatures=8, n_works=4):
    """``n_tasks`` tasks over a small set of input signatures — the
    many-task campaign shape (Parsl-style uniform task fleets) where the
    row memo pays: each (dataset, work) signature appears ``n / 32``
    times."""
    sched = _scheduler()
    names = sched.topology.site_names
    inputs = []
    for i in range(n_signatures):
        dataset = Dataset(f"d{i}", 1e8)
        inputs += [(dataset, names[i % len(names)]),
                   (dataset, names[(i + 7) % len(names)])]
    dag = WorkflowDAG("campaign").extend(
        TaskSpec(f"t{i}", 5.0 + (i % n_works), inputs=(f"d{i % n_signatures}",))
        for i in range(n_tasks))
    return sched, dag, tuple(inputs)


def wide_fanout_wave(n_tasks):
    """One giant ready wave: every task placeable at once, greedy EFT.
    The wave engine's best case — one cost row serves thousands of
    tasks, availability updates one column per reservation."""
    run, held = _arrived(_campaign_world(n_tasks), GreedyEFTStrategy())
    return run, [(0.0, held, frozenset())]


def streaming_trickle(n_tasks):
    """Tasks going ready one at a time across distinct instants — the
    online-arrival shape where each dispatch round is a single task and
    per-round overhead (candidate rebuilds, availability gathers)
    dominates over in-wave amortization."""
    run, held = _arrived(_campaign_world(n_tasks), GreedyEFTStrategy())
    return run, [(0.01 * i, [task], frozenset())
                 for i, task in enumerate(held)]


def churn_veto_storm(n_tasks):
    """Waves under availability churn: every round a site outage begins
    and a breaker-veto set rotates, so the candidate tuple cycles and
    the memoized rows / availability vectors must re-key without
    thrashing (the rotation fits the LRU bound by design)."""
    world = _campaign_world(n_tasks)
    names = world[0].topology.site_names
    wave = 500
    starts = range(0, n_tasks, wave)
    outages = OutageSchedule([SiteOutage(names[r % 4], 1.0 * r, 0.5)
                              for r in range(len(starts))])
    run, held = _arrived(world, GreedyEFTStrategy(), failures=outages)
    return run, [(1.0 * r, held[start:start + wave],
                  frozenset({names[4 + (r % 2)]}))
                 for r, start in enumerate(starts)]


@cache
def _ladder_world(n_levels, width):
    """Levels of ``width`` tasks, level ``w`` reading ``L{w}``; the first
    task of each level writes the next level's input."""
    sched = _scheduler()
    levels = [
        [
            TaskSpec(f"t{w}_{i}", 5.0 + (i % 4), inputs=(f"L{w}",),
                     outputs=(Dataset(f"L{w + 1}", 1e8),)
                     if i == 0 and w + 1 < n_levels else ())
            for i in range(width)
        ]
        for w in range(n_levels)
    ]
    dag = WorkflowDAG("ladder").extend(t for level in levels for t in level)
    inputs = ((Dataset("L0", 1e8), sched.topology.site_names[0]),)
    return (sched, dag, inputs), levels


def dag_ladder(n_levels, width):
    """A layered DAG dispatched level by level, each level's input
    landing as a replica before the level goes ready — every wave
    invalidates the previous rows (catalog version moved), so this
    measures the memo's rebuild cost under honest invalidation, not
    just its hits."""
    world, levels = _ladder_world(n_levels, width)
    names = world[0].topology.site_names
    run, _roots = _arrived(world, DataGravityStrategy())
    for w in range(1, n_levels):
        run.sim.schedule_at(w - 0.5, run.catalog.add_replica, f"L{w}",
                            names[w % len(names)], w - 0.5)
    return run, [(1.0 * w, batch, frozenset())
                 for w, batch in enumerate(levels)]


@cache
def _fan_in_world(n_tasks):
    """Reduce tasks each reading 24-32 partitions of their own, every
    partition held at one site: no two tasks share an input, so every
    row and every staging entry is built cold."""
    sched = _scheduler()
    names = sched.topology.site_names
    inputs, tasks = [], []
    for r in range(n_tasks):
        parts = tuple(f"r{r}-m{m}" for m in range(24 + r % 9))
        for m, part in enumerate(parts):
            inputs.append((Dataset(part, 1e6 * (1 + m % 5)),
                           names[(r + 7 * m) % len(names)]))
        tasks.append(TaskSpec(f"r{r}", 2.0 + r % 3, inputs=parts))
    dag = WorkflowDAG("fan-in").extend(tasks)
    return sched, dag, tuple(inputs)


def fan_in_reduce(n_tasks):
    """One wave of fan-in reduce tasks (the shuffle and stream-join
    shape) under greedy EFT. The reference side pairs the scalar loop
    with the frozen per-input staging build, so the ratio measures
    building each task's cold inputs in one block, and the decision
    cross-check compares the two builds' estimates bit for bit."""
    run, held = _arrived(_fan_in_world(n_tasks), GreedyEFTStrategy())
    return run, [(0.0, held, frozenset())]


@contextmanager
def _scalar_per_input_staging():
    with scalar_engine(), per_input_staging():
        yield


_SCALAR = ("scalar-dispatch", scalar_engine)
_SCALAR_STAGING = ("scalar-dispatch+per-input-staging",
                   _scalar_per_input_staging)


def workloads(quick: bool = False) -> list:
    """The report's rows: ``(name, workload, its arguments, baseline,
    reference engine)``. Names are size-independent so check_regression
    can match a quick-mode CI report against the committed full-mode
    table (the gated metric is the speedup ratio, not absolute time)."""
    scale = 1 if quick else 4
    return [
        ("wide_fanout_wave", wide_fanout_wave, (50_000 * scale,), *_SCALAR),
        ("streaming_trickle", streaming_trickle, (10_000,), *_SCALAR),
        ("churn_veto_storm", churn_veto_storm, (50_000 * min(scale, 2),),
         *_SCALAR),
        ("dag_ladder", dag_ladder, (50 * scale, 1000), *_SCALAR),
        ("fan_in_reduce", fan_in_reduce, (500 * scale,), *_SCALAR_STAGING),
    ]


def _timed(build, engine):
    """Build a fresh run inside ``engine`` and time its placement (the
    build is not timed); returns the seconds and the decision stream."""
    with engine():
        run, rounds = build()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            decisions = _place(run, rounds)
            return time.perf_counter() - t0, decisions
        finally:
            gc.enable()


def _compare(name, build, reps, baseline, reference):
    # best of ``reps`` per side, the sides alternating so that host
    # drift hits both alike
    base_s = opt_s = float("inf")
    for _ in range(reps):
        seconds, base_obs = _timed(build, reference)
        base_s = min(base_s, seconds)
        seconds, opt_obs = _timed(build, nullcontext)
        opt_s = min(opt_s, seconds)
    if base_obs != opt_obs:
        raise AssertionError(
            f"{name}: dispatch engines diverged — scalar placed "
            f"{len(base_obs)} decisions, wave {len(opt_obs)}; first "
            f"mismatch: "
            f"{next((a, b) for a, b in zip(base_obs, opt_obs) if a != b)}"
        )
    tasks = len(opt_obs)
    return {
        "name": name,
        "baseline": baseline,
        "events": tasks,
        "reference_s": round(base_s, 6),
        "optimized_s": round(opt_s, 6),
        "speedup": round(base_s / opt_s, 3),
        "optimized_tasks_per_s": round(tasks / opt_s),
    }


def run_benchmarks(repeat: int = 5, quick: bool = False) -> dict:
    # quick still does best-of-2: one placement per side read
    # dag_ladder's ratio below its floor in one of five quick runs
    reps = max(2, repeat // 2)
    rows = [_compare(name, lambda: workload(*args), reps, baseline, reference)
            for name, workload, args, baseline, reference in workloads(quick)]
    return {
        "schema": "repro-bench-scheduler/1",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": repeat,
        "benchmarks": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_scheduler")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="smaller task counts (CI smoke)")
    args = parser.parse_args(argv)
    report = run_benchmarks(repeat=args.repeat, quick=args.quick)
    for row in report["benchmarks"]:
        print(f"{row['name']:<26} vs {row['baseline']:<15} "
              f"ref {row['reference_s']:.4f}s  "
              f"opt {row['optimized_s']:.4f}s  "
              f"speedup {row['speedup']:.2f}x  "
              f"({row['optimized_tasks_per_s']:,.0f} tasks/s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
