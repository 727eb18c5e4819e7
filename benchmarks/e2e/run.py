"""End-to-end benchmark of the simulator: host time users wait for.

    python benchmarks/e2e/run.py                      # all workloads, 5 samples
    python benchmarks/e2e/run.py --workload stream --seed 1 --samples 5
    python benchmarks/e2e/run.py --workload chaos --seconds 15
    python benchmarks/e2e/run.py --trace --out set.json
    python benchmarks/e2e/run.py compare parent.json change.json
    python benchmarks/e2e/run.py record               # rewrite digests.json
    python benchmarks/e2e/run.py tables               # check results/*.txt

Each sample is a fresh process (``sample.py``): one process, one thread,
GC on. Samples run one at a time, workloads interleaved round-robin,
after one unrecorded warm-up process that fills ``__pycache__``. A set
takes ``--samples`` rounds; with ``--seconds`` it takes at least that
many and keeps sampling while another round fits in that time (a
traced set spends half of it, at least one round).
``--trace`` adds one profiled sample per workload, never mixed into the
timed ones, and reports the per-layer metrics instead of the
end-to-end ones.

Times are reported at the reference speed of the host. A shared VM's
speed changes from second to second, so this process, pinned with its
samples to one CPU, times a fixed reference loop before the first
sample and after each one, and scales each sample's host seconds by
``REFERENCE_S`` over the mean of the two loops around it, to the power
``REFERENCE_SLOPE``. The raw host seconds are printed and kept in
``--out`` beside them.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An op (one experiment, ``run`` or
``run_stream`` call) fails when it raises, breaks an invariant, differs
from the digest recorded for its seed in ``digests.json``, or differs
between samples. Any failure makes the exit code 1, after the metrics.
Metric names, units, bounds and the workload list live in
``BENCHMARK.json`` at the root of the repository.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")
SAMPLE = os.path.join(HERE, "sample.py")
TRACE_DIR = os.path.join(HERE, "out")
RECORDED_SEEDS = (0, 1)
# A timed run must end within 180 s; stop sampling well before that.
DEADLINE_S = 150.0
SAMPLE_TIMEOUT_S = 900.0
SCHEMA = "repro-e2e-bench/1"
# per-layer metrics: each suite experiment's share of the timed pass
EXPERIMENT_SHARE = re.compile(r"^bench\.(E\d+)_pct$")
# Host seconds of reference_loop() on the reference host at its usual
# speed; the unit every reported time is scaled to.
REFERENCE_S = 0.25
# Host load slows the loop more than it slows the workloads: across
# twenty runs per workload, log pass time rose by 0.37-1.03 (pooled:
# about 0.75) per unit of log loop time.
REFERENCE_SLOPE = 0.75


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    """The measurement setup, stamped into every result file."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


class _Node:
    __slots__ = ("key", "due", "value")

    def __init__(self, key: int, due: float, value: float):
        self.key, self.due, self.value = key, due, value

    def __lt__(self, other: "_Node") -> bool:
        return self.due < other.due


def reference_loop(n: int = 100_000) -> float:
    """Host seconds of a fixed pure-Python loop shaped like a simulator's
    work: small objects through a heap, and a table too large for the
    caches, read back in shuffled order. It runs in this process, which
    never imports the program, so only the host's speed moves it."""
    rng = random.Random(1)
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap, table = [], {}
    for i in range(n):
        node = _Node(i, rng.random(), float(i))
        heapq.heappush(heap, node)
        table[(i, i & 63)] = node
        if len(heap) > 256:
            heapq.heappop(heap)
    order = list(range(n))
    rng.shuffle(order)
    total = 0.0
    for i in order:
        total += table[(i, i & 63)].value
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def at_reference_speed(doc: dict, loops: list[float]) -> None:
    """Scale a sample's host seconds by the mean of the reference loops
    timed just before and just after it, to the power REFERENCE_SLOPE."""
    factor = (REFERENCE_S / statistics.fmean(loops)) ** REFERENCE_SLOPE
    doc["reference_s"] = loops
    doc["wall_s"] = doc["host_wall_s"] * factor
    doc["setup_s"] = doc["host_setup_s"] * factor
    if doc["tasks"] is not None:
        doc["tasks_per_s"] = doc["tasks"] / doc["wall_s"]


def spawn(args: list[str], timeout: float) -> tuple[dict | None, str | None]:
    """Run one sample process to completion; (document, error)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, SAMPLE, *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"sample timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"sample exited {proc.returncode}: {tail[0]}"
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "sample printed no result"
    if "setup_done" in doc:
        doc["host_setup_s"] = doc["setup_done"] - started
    return doc, None


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated within the samples (with
    5 samples, the second and fourth smallest)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(values: list[float], unit: str) -> dict:
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "unit": unit, "values": values}


class WorkloadRun:
    """Samples, op outcomes and metrics of one workload in one set."""

    def __init__(self, name: str, seed: int, expected: dict | None):
        self.name, self.seed = name, seed
        self.expected = expected or {}
        self.samples: list[dict] = []
        self.seen: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.traced: dict | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def absorb(self, doc: dict | None, error: str | None) -> bool:
        """Count a sample's ops and check their digests."""
        if doc is None:
            self.attempted += 1
            self.fail(error)
            return False
        for op in doc["ops"]:
            self.attempted += 1
            digest, name = op["digest"], op["name"]
            if op["error"] is not None:
                self.fail(f"{name}: {op['error']}")
            elif name in self.expected and digest != self.expected[name]:
                self.fail(f"{name}: digest differs from the one recorded "
                          f"for seed {self.seed}")
            elif self.seen.setdefault(name, digest) != digest:
                self.fail(f"{name}: digest differs between samples")
        return True

    def add_sample(self, doc: dict | None, error: str | None) -> None:
        if self.absorb(doc, error):
            self.samples.append(doc)

    def metrics(self, spec: dict) -> dict:
        """End-to-end metrics over the recorded samples."""
        out = {}
        for m in spec["end_to_end"]:
            values = [s[m["name"]] for s in self.samples]
            if values:
                out[m["name"]] = summarize(values, m["unit"])
        return out

    def layer_metrics(self, spec: dict) -> dict:
        """Per-layer metrics of the traced sample, plus the suite's
        experiment times and the tracing overhead."""
        layers = dict(self.traced["layers"])
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            exp = EXPERIMENT_SHARE.match(name)
            if exp:
                shares = [100.0 * op["wall_s"] / s["host_wall_s"]
                          for s in self.samples
                          for op in s["ops"] if op["name"] == exp[1]]
                layers[name] = statistics.median(shares) if shares else 0.0
        walls = [s["wall_s"] for s in self.samples]
        layers["trace.overhead"] = (self.traced["wall_s"]
                                    / statistics.median(walls)
                                    if walls else 0.0)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(layers) - set(units))
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        return {name: {"value": layers[name], "unit": units[name]}
                for name in names if name in layers}

    def host_medians(self) -> str:
        """The unscaled host seconds and reference loops, for the log."""
        def median(key):
            return statistics.median(s[key] for s in self.samples)
        loops = [t for s in self.samples for t in s["reference_s"]]
        return (f"host seconds: wall {median('host_wall_s'):.4f}, set-up "
                f"{median('host_setup_s'):.4f}; reference loop "
                f"{statistics.median(loops):.4f} (scaled to {REFERENCE_S})")


def run_set(workloads: list[str], seed: int, *, samples: int,
            seconds: float | None, trace: bool, smoke: bool,
            trace_dir: str) -> list[WorkloadRun]:
    digests = {} if smoke else load_json(DIGESTS)
    runs = [WorkloadRun(w, seed, digests.get(w, {}).get(str(seed)))
            for w in workloads]
    deadline = time.perf_counter() + (DEADLINE_S if seconds is not None
                                      else math.inf)

    def sample(*args: str) -> tuple[dict | None, str | None]:
        left = min(deadline - time.perf_counter(), SAMPLE_TIMEOUT_S)
        return spawn([*args, "--seed", str(seed)]
                     + (["--smoke"] if smoke else []), left)

    warm, error = sample("--warmup")
    if warm is None:
        print(f"# warm-up failed: {error}", file=sys.stderr)
    # With a time budget, a traced set spends half of it on timed samples
    # (they only give trace.overhead its base).
    budget = seconds / 2 if (seconds is not None and trace) else seconds
    min_rounds = 1 if (trace and budget is not None) else samples
    rounds = 0
    t0 = time.perf_counter()
    # A reference loop runs before the first sample and after each one.
    # The loops and the samples share one CPU: on a shared VM each
    # virtual CPU slows down on its own (two loops timed back to back on
    # the two CPUs of the reference host correlated at 0.03).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    loops = [reference_loop()]

    def timed(*args: str) -> tuple[dict | None, str | None]:
        doc, error = sample(*args)
        loops.append(reference_loop())
        if doc is not None:
            at_reference_speed(doc, loops[-2:])
        return doc, error

    while True:
        elapsed = time.perf_counter() - t0
        if rounds and time.perf_counter() + 3 * elapsed / rounds > deadline:
            break
        if rounds >= min_rounds and (
                budget is None or elapsed * (rounds + 1) / rounds > budget):
            break
        for run in runs:
            run.add_sample(*timed("--workload", run.name))
        rounds += 1
    if trace:
        for run in runs:
            doc, error = timed("--workload", run.name,
                               "--trace-dir", trace_dir)
            if run.absorb(doc, error):
                run.traced = doc
    return runs


def report(runs: list[WorkloadRun], spec: dict, trace: bool, env: dict,
           config: dict, out: str | None, trace_dir: str) -> int:
    result_metrics, attempted, failed = {}, 0, 0
    doc = {"schema": SCHEMA, "environment": env, "config": config,
           "workloads": {}}
    prefix = len(runs) > 1
    for run in runs:
        attempted += run.attempted
        failed += run.failed
        e2e = run.metrics(spec)
        entry = {"metrics": e2e, "attempted": run.attempted,
                 "failed": run.failed, "errors": run.errors}
        print(f"# {run.name} seed {run.seed}: {len(run.samples)} samples, "
              f"{run.attempted} ops, {run.failed} failed")
        for message in run.errors:
            print(f"#   FAILED {message}")
        for name, s in e2e.items():
            print(f"{run.name:<9} {name:<14} {s['median']:>14.6f} "
                  f"{s['unit']:<8} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"min {s['min']:.6g}  max {s['max']:.6g}  n {s['n']}")
        if run.samples:
            print(f"# {run.name} {run.host_medians()}")
            entry["host"] = {key: [s[key] for s in run.samples] for key in
                             ("host_wall_s", "host_setup_s", "reference_s")}
        chosen = {n: {"value": s["median"], "unit": s["unit"]}
                  for n, s in e2e.items()}
        if trace and run.traced is not None:
            layers = run.layer_metrics(spec)
            entry["layers"] = layers
            for name, v in layers.items():
                print(f"{run.name:<9} {name:<30} {v['value']:>16.6f} "
                      f"{v['unit']}")
            with open(os.path.join(trace_dir, run.name + ".layers.json"),
                      "w", encoding="utf-8") as handle:
                json.dump({"environment": env, "workload": run.name,
                           "seed": run.seed, "metrics": layers}, handle,
                          indent=1, sort_keys=True)
            chosen = layers
        elif trace:
            chosen = {}
        doc["workloads"][run.name] = entry
        for name, value in chosen.items():
            result_metrics[f"{run.name}.{name}" if prefix else name] = value
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    correct = failed == 0 and all(r.samples for r in runs) and \
        (not trace or all(r.traced for r in runs))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare: two result files, per workload x metric
# ---------------------------------------------------------------------------

def judge(a: list[float], b: list[float], better: str,
          bound: float) -> tuple[str, str]:
    """(verdict, gain) for change ``b`` against parent ``a``.

    ``unresolved`` when either side's spread (IQR over median) is wider
    than the bound, unless every run of the change reads better than
    every run of the parent. A gain needs the change to win at least
    nine tenths of the pairs and the medians to differ by more than
    the parent's IQR.
    """
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse = sign * (mb - ma) / ma
    spread = max((quartiles(x)[1] - quartiles(x)[0]) / statistics.median(x)
                 for x in (a, b))
    if max(sign * y for y in b) < min(sign * x for x in a):
        verdict = "within bound"
    elif spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    q1a, q3a = quartiles(a)
    gained = wins >= 0.9 * len(pairs) and sign * (ma - mb) > q3a - q1a
    return verdict, f"{'yes' if gained else 'no'} ({wins}/{len(pairs)} pairs)"


def compare(path_a: str, path_b: str) -> int:
    spec = load_json(SPEC)
    a, b = load_json(path_a), load_json(path_b)
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "B")]
    status = 0
    print(f"# A = {path_a} ({a['environment']['commit'][:12]})")
    print(f"# B = {path_b} ({b['environment']['commit'][:12]})")
    print(f"{'workload':<9} {'metric':<12} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict       gain")
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            sa, sb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if sa is None or sb is None:
                print(f"{w:<9} {m['name']:<12} missing")
                status = 1
                continue
            verdict, gain = judge(sa["values"], sb["values"], m["better"],
                                  m["bound"])
            change = (sb["median"] - sa["median"]) / sa["median"]
            status |= verdict == "regressed"
            cells = ["{:.5g} [{:.5g}, {:.5g}]".format(
                         s["median"], *quartiles(s["values"]))
                     for s in (sa, sb)]
            print(f"{w:<9} {m['name']:<12} {cells[0]:>32} {cells[1]:>32} "
                  f"{change:>+8.2%}  {verdict:<13} {gain}")
        if wb["failed"] > wa["failed"]:
            print(f"{w:<9} failed ops {wa['failed']} -> {wb['failed']}")
            status = 1
        la, lb = wa.get("layers"), wb.get("layers")
        if la and lb:
            differ = [n for n in counts if n in la and n in lb
                      and la[n]["value"] != lb[n]["value"]]
            print(f"{w:<9} per-layer counts "
                  f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
            status |= bool(differ)
    return int(status)


# ---------------------------------------------------------------------------
# record: the digests of the held-out seeds
# ---------------------------------------------------------------------------

def record(workloads: list[str]) -> int:
    digests = {}
    for w in workloads:
        for seed in RECORDED_SEEDS:
            doc, error = spawn(["--workload", w, "--seed", str(seed)],
                               SAMPLE_TIMEOUT_S)
            if doc is None:
                print(f"error: {w} seed {seed}: {error}", file=sys.stderr)
                return 1
            bad = [op for op in doc["ops"] if op["error"] is not None]
            if bad:
                print(f"error: {w} seed {seed}: {bad[0]['name']}: "
                      f"{bad[0]['error']}", file=sys.stderr)
                return 1
            digests.setdefault(w, {})[str(seed)] = {
                op["name"]: op["digest"] for op in doc["ops"]}
            print(f"# {w} seed {seed}: {len(doc['ops'])} ops recorded")
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ---------------------------------------------------------------------------
# tables: the committed experiment tables, in their committed modes
# ---------------------------------------------------------------------------

def tables() -> int:
    """Run every suite experiment at seed 0 in the mode its table in
    results/ was committed in, and check that each table reproduces."""
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from sample import check_ops, run_pass
    from workloads import prepare_tables

    ops = prepare_tables()
    results, records = run_pass(ops)
    check_ops(ops, results, records)
    for rec in records:
        print(f"{rec['name']:<4} {rec['wall_s']:8.3f} s  "
              f"{'reproduced' if rec['error'] is None else rec['error']}")
    return int(any(rec["error"] is not None for rec in records))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}", file=sys.stderr)
        return 2
    spec = load_json(SPEC)
    names = [w["name"] for w in spec["workloads"]]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if argv[:1] == ["record"]:
        return record(names)
    if argv[:1] == ["tables"]:
        return tables()
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sample until this much time is spent "
                             "(overrides --samples)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None, help="write the set here")
    parser.add_argument("--trace-dir", default=TRACE_DIR,
                        help="where traced samples write pstats and "
                             "per-layer JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs, no recorded digests")
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = list(dict.fromkeys(args.workload or names))
    env = environment()
    config = {"workloads": workloads, "seed": args.seed,
              "samples": args.samples, "seconds": args.seconds,
              "trace": bool(args.trace), "smoke": args.smoke}
    if args.trace:
        os.makedirs(args.trace_dir, exist_ok=True)
    runs = run_set(workloads, args.seed, samples=args.samples,
                   seconds=args.seconds, trace=bool(args.trace),
                   smoke=args.smoke, trace_dir=args.trace_dir)
    return report(runs, spec, bool(args.trace), env, config, args.out,
                  args.trace_dir)


if __name__ == "__main__":
    sys.exit(main())
