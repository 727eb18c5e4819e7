"""One benchmark sample: a fresh process that sets a workload up, times
one pass over it, checks its outputs and prints one JSON line.

    python benchmarks/e2e/sample.py --workload stream --seed 0
    python benchmarks/e2e/sample.py --workload stream --seed 0 --trace-dir out
    python benchmarks/e2e/sample.py --warmup

``run.py`` starts these one at a time; run one by hand to debug a
workload. ``setup_done`` is ``time.perf_counter()`` (the system-wide
monotonic clock) once the inputs are built, so the parent can measure
set-up from the moment it started the process.

With ``--trace-dir`` the pass runs under cProfile, a second pass runs
under an ambient metrics registry for the counts, and the sample
writes ``<workload>.pstats`` there and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import json
import os
import pkgutil
import pstats
import resource
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


@contextmanager
def counting_tasks():
    """Count simulated tasks completed through the scheduler's public
    entry points (the suite's experiments report no task count)."""
    from repro.core import ContinuumScheduler

    done = [0]
    originals = {name: getattr(ContinuumScheduler, name)
                 for name in ("run", "run_stream")}

    def wrap(method):
        @functools.wraps(method)
        def counted(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            done[0] += len(result.records)
            return result
        return counted

    for name, method in originals.items():
        setattr(ContinuumScheduler, name, wrap(method))
    try:
        yield done
    finally:
        for name, method in originals.items():
            setattr(ContinuumScheduler, name, method)


def run_pass(ops) -> tuple[list, list[dict]]:
    """Run every op once, in order; an exception fails only its op."""
    results, records = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"name": op.name, "wall_s": time.perf_counter() - t0,
                        "error": error})
        results.append(result)
    return results, records


def check_ops(ops, results, records) -> None:
    """Digest and invariant checks, outside the timed region."""
    for op, result, rec in zip(ops, results, records):
        rec["digest"] = None
        if rec["error"] is not None:
            continue
        try:
            rec["error"] = op.check(result)
            rec["digest"] = op.digest(result)
        except Exception as exc:
            rec["error"] = f"check raised {type(exc).__name__}: {exc}"


def _percent(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def layer_metrics(split: dict, setup_split: dict, registries, ops) -> dict:
    """The per-layer metrics of one traced pass (trace.overhead and the
    suite's experiment shares are added by the parent).

    Layer self time is a share of the profiled total: a layer that a
    workload never enters reads 0% rather than a constant 0 s, and
    ``trace.profiled_s`` turns shares back into seconds.
    """
    self_s, probes = split["self_s"], split["probes"]
    out = {"trace.profiled_s": split["total_s"]}
    for layer, value in self_s.items():
        out[f"{layer}.self_pct"] = _percent(value, split["total_s"])
        out[f"{layer}.calls_in"] = split["calls_in"][layer]
    for layer in ("workflow", "continuum"):
        out[f"setup.{layer}.self_pct"] = _percent(
            setup_split["self_s"][layer], setup_split["total_s"])

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    def total(name):
        """A counter summed over its label sets and the registries."""
        families = [r.get(name) for r in registries]
        return sum(child.value for family in families if family is not None
                   for _labels, child in family.series())

    events = total("sim_events_dispatched_total")
    decisions = total("scheduler_placement_decisions_total")
    solves, solve_s = probes["solve"]
    batches = probes["estimate_batch"][0]
    hits = total("datafabric_cache_hits_total")
    lookups = hits + total("datafabric_cache_misses_total")
    out.update({
        "simcore.events": events,
        "simcore.us_per_event": per(self_s["simcore"], events, 1e6),
        "core.decisions": decisions,
        "core.us_per_decision": per(self_s["core"], decisions, 1e6),
        "core.row_hit_ratio": (1.0 - probes["row_miss"][0] / batches
                               if batches else 0.0),
        "netsim.flows": total("netsim_flows_started_total"),
        "netsim.rate_solves": total("netsim_rate_solves_total"),
        "netsim.ms_per_solve": per(solve_s, solves, 1e3),
        "netsim.bytes_moved": total("netsim_bytes_moved_total"),
        "datafabric.stages": probes["stage"][0],
        "datafabric.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "controlplane.deliveries": probes["deliver"][0],
        "controlplane.reads": total("controlplane_reads_total"),
        "controlplane.commits": total("controlplane_commits_total"),
        "controlplane.elections": total("controlplane_elections_total"),
        "controlplane.compactions": probes["compact"][0],
        "resilience.retries": total("resilience_retries_total"),
        "resilience.hedges_launched":
            total("resilience_hedges_launched_total"),
        "observe.spans": sum(len(op.tracer.spans) for op in ops
                             if op.tracer is not None),
    })
    return out


def warm_up() -> None:
    """Import every module and build every workload's smoke inputs once,
    so that the recorded samples find ``__pycache__`` filled."""
    import repro
    from workloads import WORKLOADS

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            __import__(info.name)
    for prepare in WORKLOADS.values():
        prepare(0, True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sample.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the shrunken inputs of the smoke tests")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.warmup:
        warm_up()
        print(json.dumps({"warmup": True}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from layers import split
    from workloads import WORKLOADS
    from repro.observe import MetricsRegistry, use_registry

    prepare = WORKLOADS[args.workload]
    traced = args.trace_dir is not None
    if traced:
        setup_profile = cProfile.Profile()
        setup_profile.enable()
    ops = prepare(args.seed, args.smoke)
    if traced:
        setup_profile.disable()
    setup_done = time.perf_counter()
    if traced:
        profile = cProfile.Profile()
        profile.enable()
        results, records = run_pass(ops)
        profile.disable()
        tasks = None
    else:
        with counting_tasks() as done:
            results, records = run_pass(ops)
        tasks = done[0]
    wall = time.perf_counter() - setup_done
    check_ops(ops, results, records)
    if traced:
        # Counts come from a second pass under an ambient registry, so
        # that the registry's own cost stays out of the profiled self
        # times. Instrumented runs must be bit-identical to bare ones.
        metered_ops = prepare(args.seed, args.smoke)
        registry = MetricsRegistry()
        with use_registry(registry):
            metered, metered_records = run_pass(metered_ops)
        check_ops(metered_ops, metered, metered_records)
        for rec, other in zip(records, metered_records):
            if rec["error"] is None and other["digest"] != rec["digest"]:
                rec["error"] = other["error"] or "metered pass differs"
    doc = {
        "workload": args.workload, "seed": args.seed,
        "setup_done": setup_done, "host_wall_s": wall, "tasks": tasks,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if traced:
        os.makedirs(args.trace_dir, exist_ok=True)
        profile.dump_stats(os.path.join(args.trace_dir,
                                        args.workload + ".pstats"))
        timed = split(pstats.Stats(profile))
        registries = [registry] + [op.registry for op in metered_ops
                                   if op.registry is not None]
        doc["layers"] = layer_metrics(
            timed, split(pstats.Stats(setup_profile)), registries, ops)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
