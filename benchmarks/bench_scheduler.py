"""Scheduler dispatch-rate microbenchmarks: wave engine vs scalar oracle.

The continuum scheduler's hot path is the placement loop — for each
ready task, rank every candidate site by estimated finish time, reserve
the winner, emit a decision. Wave-batched dispatch attacks that loop
with memoized cost rows (tasks sharing an input signature reuse one
numpy row) and incrementally-maintained availability vectors; the
frozen scalar loop (``tests/oracles/dispatch.py``, row memo disabled)
is kept as the in-run reference, exactly as the kernel benchmarks keep
the seed kernel.

These workloads drive the two dispatch engines directly against a
placement harness — real strategies, real context, real cost model, no
event simulation — so the measured gap is pure placement work with no
transfer/execution dilution. Every workload cross-checks correctness:
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
from contextlib import nullcontext
from datetime import datetime, timezone

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.continuum import geo_random_continuum
from repro.core.context import SchedulingContext
from repro.core.scheduler import wave_dispatch
from repro.core.strategies import DataGravityStrategy, GreedyEFTStrategy
from repro.datafabric import Dataset, ReplicaCatalog
from repro.workflow import TaskSpec
from tests.oracles import scalar_dispatch, scalar_engine


class _Clock:
    __slots__ = ("now",)

    def __init__(self):
        self.now = 0.0


class _Harness:
    """Just enough of the scheduler's ``_Run`` surface for the two
    dispatch engines: strategy, context, ready list, resource names,
    decision log, clock. ``_start_attempt`` is a no-op — attempts are
    simulation, and these benchmarks measure placement only."""

    def __init__(self, topo, catalog, strategy, mode, failures=None):
        self.strategy = strategy
        # the scalar side gets the oracle's un-memoized cost model
        with scalar_engine() if mode == "scalar" else nullcontext():
            self.ctx = SchedulingContext(topo, catalog)
        self.resources = {s.name: True for s in self.ctx.candidates}
        self.ready = []
        self.decisions = []
        self.failures = failures
        self.sim = _Clock()
        self._m_decisions = None

    def _start_attempt(self, task, site_name, decision):
        pass

    def dispatch(self, batch, mode, vetoed=frozenset()):
        self.ctx.set_now(self.sim.now)
        self.ctx.set_vetoed(vetoed)
        try:
            if mode == "wave":
                wave_dispatch(self, batch, vetoed)
            else:
                scalar_dispatch(self, batch, vetoed)
        finally:
            self.ctx.set_vetoed(())


# Prebuilt immutable workload inputs, shared by the scalar and wave
# timings (and across repeats): task construction and route warm-up are
# identical costs on both sides, so keeping them inside the timed
# region would only dilute the dispatch-rate ratio being measured.
_WORLDS: dict = {}


def _world(key, build):
    w = _WORLDS.get(key)
    if w is None:
        w = _WORLDS[key] = build()
    return w


def _warm_topology(topo):
    for name in topo.site_names:
        topo.path_rows(name)
    return topo


def _fanout_tasks(n, n_signatures=8, n_works=4):
    """``n`` tasks over a small set of input signatures — the many-task
    campaign shape (Parsl-style uniform task fleets) where the row memo
    pays: each (dataset, work) signature appears ``n / 32`` times."""
    return [
        TaskSpec(f"t{i}", 5.0 + (i % n_works), inputs=(f"d{i % n_signatures}",))
        for i in range(n)
    ]


def _campaign_world(n_tasks):
    topo = _warm_topology(geo_random_continuum(24, seed=3))
    catalog = ReplicaCatalog()
    names = topo.site_names
    for i in range(8):
        catalog.register(Dataset(f"d{i}", 1e8))
        catalog.add_replica(f"d{i}", names[i % len(names)])
        catalog.add_replica(f"d{i}", names[(i + 7) % len(names)])
    return topo, catalog, _fanout_tasks(n_tasks)


def wide_fanout_wave(mode, n_tasks):
    """One giant ready wave: every task placeable at once, greedy EFT.
    The wave engine's best case — one cost row serves thousands of
    tasks, availability updates one column per reservation."""
    topo, catalog, tasks = _world(("campaign", n_tasks),
                                  lambda: _campaign_world(n_tasks))
    run = _Harness(topo, catalog, GreedyEFTStrategy(), mode)
    run.dispatch(list(tasks), mode)
    return run.decisions


def streaming_trickle(mode, n_tasks):
    """Tasks going ready one at a time across distinct instants — the
    online-arrival shape where each dispatch round is a single task and
    per-round overhead (candidate rebuilds, availability gathers)
    dominates over in-wave amortization."""
    topo, catalog, tasks = _world(("campaign", n_tasks),
                                  lambda: _campaign_world(n_tasks))
    run = _Harness(topo, catalog, GreedyEFTStrategy(), mode)
    for i, task in enumerate(tasks):
        run.sim.now = 0.01 * i
        run.dispatch([task], mode)
    return run.decisions


def churn_veto_storm(mode, n_tasks):
    """Waves under availability churn: every round flips a site outage
    and rotates a breaker-veto set, so the candidate tuple cycles and
    the memoized rows / availability vectors must re-key without
    thrashing (the rotation fits the LRU bound by design)."""
    topo, catalog, tasks = _world(("campaign", n_tasks),
                                  lambda: _campaign_world(n_tasks))
    names = topo.site_names
    run = _Harness(topo, catalog, GreedyEFTStrategy(), mode,
                   failures=object())
    wave = 500
    for r, start in enumerate(range(0, len(tasks), wave)):
        run.sim.now = 1.0 * r
        down = names[r % 4]
        vetoed = {names[4 + (r % 2)]}
        run.ctx.mark_down(down)
        try:
            run.dispatch(tasks[start:start + wave], mode, vetoed=vetoed)
        finally:
            run.ctx.mark_up(down)
    return run.decisions


def _ladder_world(n_levels, width):
    topo = _warm_topology(geo_random_continuum(24, seed=3))
    levels = [
        [
            TaskSpec(f"t{w}_{i}", 5.0 + (i % 4), inputs=(f"L{w}",))
            for i in range(width)
        ]
        for w in range(n_levels)
    ]
    return topo, levels


def dag_ladder(mode, n_levels, width):
    """A layered DAG dispatched level by level, each level's output
    registered as a replica before the next — every wave invalidates
    the previous rows (catalog version moved), so this measures the
    memo's rebuild cost under honest invalidation, not just its hits.
    The catalog is rebuilt per run: its mutation is the workload."""
    topo, levels = _world(("ladder", n_levels, width),
                          lambda: _ladder_world(n_levels, width))
    names = topo.site_names
    catalog = ReplicaCatalog()
    for w in range(n_levels):
        catalog.register(Dataset(f"L{w}", 1e8))
    catalog.add_replica("L0", names[0])
    run = _Harness(topo, catalog, DataGravityStrategy(), mode)
    for w, batch in enumerate(levels):
        if w:
            catalog.add_replica(f"L{w}", names[w % len(names)],
                                time=run.sim.now)
        run.sim.now = 1.0 * w
        run.dispatch(list(batch), mode)
    return run.decisions


def _best_of(fn, arg, repeat):
    best, result = float("inf"), None
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = fn(arg)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best, result


def _compare(name, workload, reps):
    base_s, base_obs = _best_of(workload, "scalar", reps)
    opt_s, opt_obs = _best_of(workload, "wave", reps)
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
        "baseline": "scalar-dispatch",
        "events": tasks,
        "reference_s": round(base_s, 6),
        "optimized_s": round(opt_s, 6),
        "speedup": round(base_s / opt_s, 3),
        "optimized_tasks_per_s": round(tasks / opt_s),
    }


def run_benchmarks(repeat: int = 5, quick: bool = False) -> dict:
    # workload names are size-independent so check_regression can match
    # a quick-mode CI report against the committed full-mode table (the
    # gated metric is the speedup ratio, not absolute time)
    scale = 1 if quick else 4
    workloads = [
        ("wide_fanout_wave",
         lambda mode: wide_fanout_wave(mode, 50_000 * scale)),
        ("streaming_trickle",
         lambda mode: streaming_trickle(mode, 10_000)),
        ("churn_veto_storm",
         lambda mode: churn_veto_storm(mode, 50_000 * min(scale, 2))),
        ("dag_ladder",
         lambda mode: dag_ladder(mode, 50 * scale, 1000)),
    ]
    reps = 1 if quick else max(2, repeat // 2)
    rows = [_compare(name, fn, reps) for name, fn in workloads]
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
                        help="smaller task counts, one repeat (CI smoke)")
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
