"""Perf-guard: compare a fresh benchmark report against the committed one.

CI runs the kernel, fairness, and scheduler benchmarks in quick mode
and feeds each JSON report here against its committed counterpart. The
gated metric is each workload's **speedup** — optimized throughput
normalized by the in-run reference (seed kernel, PR-4 heap queue,
scalar solver, or scalar dispatch loop, measured in the same process on
the same machine). That normalization is what makes the committed
dev-container numbers comparable to a CI runner at all: absolute
events/s scale with host speed and repetition count, the ratio does
not. A workload whose speedup falls more than ``threshold`` below the
committed value — the optimized path lost its edge over the unchanged
reference, i.e. its events/s regressed — fails the job.

The default threshold is generous (30%) because quick-mode CI runners
are noisy: the gate exists to catch order-of-magnitude regressions (an
accidental O(n) scan on the hot path, a lost fast path), not 5% jitter.

Two eligibility rules keep the gate meaningful, and every skipped row
is printed (never silently dropped):

- only rows whose **committed speedup is >= 2x** are gated — a
  near-1x row has no edge to protect and its ratio is timing noise;
- only rows whose **fresh optimized timing rests on >= 1ms** of calls
  are gated — sub-millisecond quick-mode measurements are dominated by
  one-time costs and clock granularity. A fairness row records the
  seconds its best-of spent (``vectorized_spent_s``: at least 0.05 s
  of calls), and that is what the rule reads; a row without it (the
  kernel and scheduler rows) is judged by its best time.

Usage::

    python benchmarks/check_regression.py BENCH_kernel.json fresh.json \
        [--threshold 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys


def _rows(report: dict) -> dict[str, dict]:
    out = {}
    for row in report.get("benchmarks", []):
        out[row["name"]] = row
    for row in report.get("fairness", []):
        out[row["name"]] = row
    return out


def _throughput(row: dict) -> float:
    if "optimized_events_per_s" in row:
        return float(row["optimized_events_per_s"])
    if "optimized_tasks_per_s" in row:
        return float(row["optimized_tasks_per_s"])
    return float(row["rate_solves_per_s"])


def _timed_s(row: dict) -> float:
    """Seconds of calls the optimized timing rests on: what its best-of
    spent where the row records that, else its best time."""
    for key in ("vectorized_spent_s", "optimized_s"):
        if key in row:
            return float(row[key])
    return float(row["vectorized_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="check_regression")
    parser.add_argument("committed", help="committed BENCH_kernel.json")
    parser.add_argument("candidate", help="freshly-generated report")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max tolerated fractional speedup drop "
                             "(default 0.30)")
    args = parser.parse_args(argv)

    with open(args.committed, encoding="utf-8") as handle:
        committed = _rows(json.load(handle))
    with open(args.candidate, encoding="utf-8") as handle:
        candidate = _rows(json.load(handle))

    failures = []
    for name, base_row in sorted(committed.items()):
        fresh_row = candidate.get(name)
        if fresh_row is None:
            failures.append(f"{name}: missing from candidate report")
            continue
        base, fresh = float(base_row["speedup"]), float(fresh_row["speedup"])
        ratio = fresh / base if base else float("inf")
        if base < 2.0:
            status = "SKIPPED (committed speedup < 2x, nothing to guard)"
        elif _timed_s(fresh_row) < 1e-3:
            status = "SKIPPED (fresh optimized timing < 1ms, untimeable)"
        elif ratio >= 1.0 - args.threshold:
            status = "OK"
        else:
            status = "REGRESSED"
        print(f"{name:<30} committed {base:5.2f}x  fresh {fresh:5.2f}x  "
              f"ratio {ratio:5.2f}  ({_throughput(fresh_row):,.1f}/s)  "
              f"{status}")
        if status == "REGRESSED":
            failures.append(
                f"{name}: speedup {fresh:.2f}x is {1 - ratio:.0%} below the "
                f"committed {base:.2f}x (threshold {args.threshold:.0%})"
            )
    extra = set(candidate) - set(committed)
    if extra:
        print(f"(untracked workloads, not gated: {', '.join(sorted(extra))})")

    if failures:
        print("\nPERF GUARD FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
