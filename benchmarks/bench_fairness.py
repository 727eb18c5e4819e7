"""Fair-share solver benchmark: vectorized solver vs scalar loops.

Times the checked entry point ``repro.netsim.fairness.max_min_fair_rates``
around :func:`~repro.netsim.fairness.progressive_fill`, the unchecked
core the flow network calls (per-level numpy array ops over a link x
flow incidence matrix), against the frozen pure-Python scalar reference
in ``tests/oracles/fair_share.py``, which implements the same
progressive filling with per-flow loops — the implementation shape the
vectorized solver replaced. The row names keep the entry point's name.
Every timed pair is also cross-checked: the two implementations must
agree to 1e-9 on every flow rate.

The headline scale is 10k flows over a few hundred links, the regime
continuum experiments need for realistic (KheOps-style edge-to-cloud)
scenario sizes. Reported ``rate_solves_per_s`` is for the vectorized
solver: full allocations per second at that scale.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_fairness.py \
        --merge-into BENCH_kernel.json

``--merge-into`` folds the rows into the kernel perf trajectory file
(under a top-level ``"fairness"`` key) so one artifact tracks both
events/s and rate-solves/s; ``--out`` writes a standalone report.

numpy runs with one BLAS thread, as in the end-to-end benchmark's
samples. On a shared two-vCPU host a threaded matvec waits on its
slower thread: the 10k-flow vectorized solve read 0.057-0.071 s with
two threads and 0.029-0.043 s with one, so the gated ratio swung
between about 5x and 14x from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from datetime import datetime, timezone

for _threads in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np  # noqa: E402  (after the thread settings)

from repro.netsim.fairness import _incidence, max_min_fair_rates  # noqa: E402
from tests.oracles import scalar_max_min  # noqa: E402
from timing import best_of  # noqa: E402


# ---------------------------------------------------------------------------
# Workload generation (seeded: identical topology every run)
# ---------------------------------------------------------------------------

def make_scenario(n_links: int, n_flows: int, seed: int = 42):
    rng = random.Random(seed)
    caps = [rng.uniform(1e2, 1e4) for _ in range(n_links)]
    flow_links = [
        rng.sample(range(n_links), rng.randint(1, min(4, n_links)))
        for _ in range(n_flows)
    ]
    return caps, flow_links


SOLVERS = [
    # (row name, scalar fn, vectorized fn)
    ("max_min_fair_rates", scalar_max_min, max_min_fair_rates),
]

SCALES = [
    # (links, flows)
    (50, 1_000),
    (200, 10_000),
]


def run_benchmarks(repeat: int = 3, quick: bool = False) -> dict:
    # quick still does at least best-of-2: the first call pays numpy
    # warm-up (page faults on the 16MB incidence matrix, ufunc setup)
    # and would skew single-rep ratios badly
    reps = min(2, repeat) if quick else repeat
    rows = []
    for n_links, n_flows in SCALES:
        caps, flow_links = make_scenario(n_links, n_flows)
        # The vectorized solver is timed on the production fast path:
        # a prebuilt incidence matrix, as FlowNetwork passes its route
        # matrix. (The scalar reference builds its link adjacency
        # inline — a negligible fraction of its runtime.)
        A = _incidence(n_links, flow_links)
        for name, scalar_fn, vector_fn in SOLVERS:
            [(scalar_s, scalar_spent, scalar_rates)] = best_of(
                [lambda: scalar_fn(caps, flow_links)], reps)
            [(vector_s, vector_spent, vector_rates)] = best_of(
                [lambda: vector_fn(caps, A)], reps)
            if not np.allclose(np.asarray(scalar_rates), vector_rates,
                               rtol=1e-9, atol=1e-9):
                raise AssertionError(
                    f"{name} @ {n_flows} flows: vectorized solver diverged "
                    f"from the scalar reference"
                )
            rows.append({
                "name": f"{name}_{n_flows // 1000}k",
                "links": n_links,
                "flows": n_flows,
                "scalar_s": round(scalar_s, 6),
                "vectorized_s": round(vector_s, 6),
                # seconds of calls each best-of spent
                "scalar_spent_s": round(scalar_spent, 6),
                "vectorized_spent_s": round(vector_spent, 6),
                "speedup": round(scalar_s / vector_s, 3),
                "rate_solves_per_s": round(1.0 / vector_s, 3),
            })
    return {
        "schema": "repro-bench-fairness/1",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": repeat,
        "fairness": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_fairness")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write a standalone machine-readable report")
    parser.add_argument("--merge-into", metavar="FILE", default=None,
                        help="fold the fairness rows into an existing "
                             "BENCH_kernel.json report")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="best-of-2 repetitions, more for fast "
                             "solves (CI smoke)")
    args = parser.parse_args(argv)
    report = run_benchmarks(repeat=args.repeat, quick=args.quick)
    for row in report["fairness"]:
        print(f"{row['name']:<30} {row['flows']:>6} flows  "
              f"scalar {row['scalar_s']:.4f}s  "
              f"vec {row['vectorized_s']:.4f}s  "
              f"speedup {row['speedup']:.1f}x  "
              f"({row['rate_solves_per_s']:,.1f} solves/s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.merge_into:
        with open(args.merge_into, encoding="utf-8") as handle:
            kernel_report = json.load(handle)
        kernel_report["fairness"] = report["fairness"]
        kernel_report["fairness_schema"] = report["schema"]
        with open(args.merge_into, "w", encoding="utf-8") as handle:
            json.dump(kernel_report, handle, indent=2)
            handle.write("\n")
        print(f"merged fairness rows into {args.merge_into}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
