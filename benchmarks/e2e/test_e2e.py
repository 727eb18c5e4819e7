"""Smoke tests of the end-to-end benchmark (shrunken inputs).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

Tier-1 collects only ``tests/``, so these run only when named. The file
is not a ``bench_*.py`` microbench.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from layers import LAYERS, layer_of, split  # noqa: E402
from run import (  # noqa: E402
    REFERENCE_S,
    REFERENCE_SLOPE,
    at_reference_speed,
    judge,
    quartiles,
)
from sample import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def smoke_digests(workload: str, seed: int) -> list[str]:
    ops = WORKLOADS[workload](seed, True)
    results, records = run_pass(ops)
    for op, result, rec in zip(ops, results, records):
        assert rec["error"] is None, rec
        assert op.check(result) is None
    return [op.digest(r) for op, r in zip(ops, results)]


def test_smoke_workloads_finish_together_under_30s():
    start = time.perf_counter()
    for workload in WORKLOADS:
        assert smoke_digests(workload, 0)
    assert time.perf_counter() - start < 30.0


def test_digests_repeat_and_differ_between_seeds():
    for workload in WORKLOADS:
        first = smoke_digests(workload, 0)
        assert smoke_digests(workload, 0) == first, workload
        # the suite runs at its own fixed seed, whatever the seed
        same = workload == "suite"
        assert (smoke_digests(workload, 1) == first) == same, workload


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_layer_map_covers_every_subpackage():
    pkg = os.path.join(ROOT, "src", "repro")
    subpackages = {d for d in os.listdir(pkg)
                   if os.path.isfile(os.path.join(pkg, d, "__init__.py"))}
    assert subpackages == set(LAYERS)


def test_layer_of():
    src = os.path.join(ROOT, "src", "repro")
    assert layer_of(os.path.join(src, "netsim", "network.py")) == "netsim"
    assert layer_of(os.path.join(src, "core", "strategies", "greedy.py")) \
        == "core"
    assert layer_of(os.path.join(src, "cli.py")) == "repro"
    assert layer_of(os.path.join(HERE, "workloads.py")) == "harness"
    assert layer_of("~") is None
    assert layer_of(json.__file__) is None


def test_layer_self_times_sum_to_profile_total():
    ops = WORKLOADS["chaos"](0, True)
    profile = cProfile.Profile()
    profile.enable()
    run_pass(ops)
    profile.disable()
    result = split(pstats.Stats(profile))
    total = sum(result["self_s"].values())
    assert abs(total - result["total_s"]) <= 0.01 * result["total_s"]
    for layer in ("simcore", "core", "netsim", "resilience", "faults",
                  "observe"):
        assert result["self_s"][layer] > 0, layer
        assert result["calls_in"][layer] > 0, layer


class FakeStats:
    """The two attributes of pstats.Stats that ``split`` reads."""

    def __init__(self, stats: dict):
        self.stats = stats
        self.total_tt = sum(entry[2] for entry in stats.values())


def test_external_cycle_is_charged_to_its_callers_layer():
    # repro's core calls external A; A and B call each other, and A is
    # B's only caller (as isinstance -> __subclasscheck__ <->
    # _abc_subclasscheck). All of A's and B's time belongs to core,
    # whichever of them the walk meets first.
    core = (os.path.join(ROOT, "src", "repro", "core", "cost.py"), 1, "f")
    a, b = ("~", 0, "<A>"), ("~", 0, "<B>")
    entries = {
        core: (1, 1, 1.0, 2.1, {}),
        a: (2, 2, 0.7, 1.1, {core: (1, 1, 0.5, 1.0),
                             b: (1, 1, 0.2, 0.3)}),
        b: (1, 1, 0.4, 0.5, {a: (1, 1, 0.4, 0.5)}),
    }
    for order in ((core, a, b), (core, b, a), (b, a, core)):
        result = split(FakeStats({f: entries[f] for f in order}))
        assert result["self_s"]["core"] == pytest.approx(2.1), order
        assert result["self_s"]["harness"] == 0.0, order


def test_benchmark_json_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + \
        [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m


def run_cli(tmp_path, *args) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "stream", "--smoke", "--samples", "1", "--trace-dir",
         str(tmp_path), *args],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_prints_every_metric_of_benchmark_json(tmp_path):
    plain = run_cli(tmp_path, "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0, m
    traced = run_cli(tmp_path, "--trace", "1")
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # times are measured, never a constant 0 (unused layers read 0%)
    for m in SPEC["per_layer"]:
        if m["unit"] in ("s", "ms", "us"):
            assert traced["metrics"][m["name"]]["value"] > 0, m
    assert (tmp_path / "stream.pstats").exists()
    assert (tmp_path / "stream.layers.json").exists()


def test_judge_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert judge(base, base, "lower", 0.1)[0] == "within bound"
    worse = [x * 1.3 for x in base]
    assert judge(base, worse, "lower", 0.1)[0] == "regressed"
    assert judge(base, worse, "higher", 0.1)[0] == "within bound"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0]
    assert judge(base, noisy, "lower", 0.1)[0] == "unresolved"
    faster = [x * 0.7 for x in base]
    verdict, gain = judge(base, faster, "lower", 0.1)
    assert verdict == "within bound" and gain.startswith("yes (5/5")
    assert judge(base, base, "lower", 0.1)[1].startswith("no (0/5")


def test_times_are_scaled_to_the_reference_speed():
    # the reference loops around the sample took 16 times their usual
    # time on average; the sample slowed by 16 ** REFERENCE_SLOPE
    slow = 16 ** REFERENCE_SLOPE
    doc = {"host_wall_s": 2.0 * slow, "host_setup_s": 0.5 * slow,
           "tasks": 100}
    at_reference_speed(doc, [12 * REFERENCE_S, 20 * REFERENCE_S])
    assert doc["wall_s"] == pytest.approx(2.0)
    assert doc["setup_s"] == pytest.approx(0.5)
    assert doc["tasks_per_s"] == pytest.approx(50.0)


def test_one_outlier_sample_leaves_the_verdict_resolved():
    # a burst of host load hits one of five samples: the quartiles are
    # the second and fourth smallest, so the spread stays small
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    hit = [1.00, 1.01, 0.99, 1.60, 1.02]
    assert quartiles(hit) == (1.00, 1.02)
    assert judge(base, hit, "lower", 0.1)[0] == "within bound"
    assert judge(hit, base, "lower", 0.1)[0] == "within bound"
