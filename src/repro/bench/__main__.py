"""CLI: run one or all experiments and print their tables.

    python -m repro.bench                 # everything, quick mode
    python -m repro.bench E1 E5           # selected, full mode
    python -m repro.bench --full          # everything, full mode
    python -m repro.bench --jobs 4        # shard across 4 worker processes
    python -m repro.bench E13 --metrics m.json   # + metrics snapshot
    python -m repro.bench E2 --profile p.pstats  # + cProfile dump

Also reachable as ``python -m repro bench ...``. Every run recomputes
the experiments it names.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import EXPERIMENTS
from repro.bench.runner import run_suite, suite_metrics_doc
from repro.errors import ContinuumError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="full sweeps (default quick when running all)")
    parser.add_argument("--quick", action="store_true",
                        help="quick sweeps even for named experiments "
                             "(CI smoke jobs)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write tables under DIR")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes to shard experiments "
                             "across (default 1: in-process)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="collect run metrics and write the canonical "
                             "JSON snapshot to FILE (experiment tables are "
                             "unaffected)")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="run under cProfile and dump pstats to FILE "
                             "(sequential runs only)")
    args = parser.parse_args(argv)

    if args.profile is not None and args.jobs != 1:
        print("error: --profile requires sequential execution "
              "(--jobs 1): worker processes aren't profiled",
              file=sys.stderr)
        return 2

    selected = args.experiments or list(EXPERIMENTS)
    quick = args.quick or (not args.full and not args.experiments)
    for exp_id in selected:
        if exp_id.upper() not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; known: {list(EXPERIMENTS)}")
            return 2
    t0 = time.perf_counter()
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            entries = run_suite(
                selected, quick=quick, seed=args.seed, jobs=args.jobs,
                save_dir=args.save,
                collect_metrics=args.metrics is not None,
            )
        finally:
            if profiler is not None:
                profiler.disable()
                profiler.dump_stats(args.profile)
                print(f"# profile written to {args.profile} "
                      f"(inspect with: python -m pstats {args.profile})",
                      file=sys.stderr)
        if args.metrics is not None:
            from repro.observe.metrics import snapshot_to_json
            from repro.utils.atomic import write_atomic

            doc = suite_metrics_doc(entries, quick=quick, seed=args.seed)
            write_atomic(args.metrics, snapshot_to_json(doc))
            print(f"# metrics snapshot written to {args.metrics}",
                  file=sys.stderr)
    except ContinuumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for entry in entries:
        print(entry.rendered)
        print()
    wall = time.perf_counter() - t0
    shards = sum(e.shards for e in entries)
    print(f"# suite: {len(entries)} experiments ({shards} shards) "
          f"in {wall:.2f}s with jobs={args.jobs}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
