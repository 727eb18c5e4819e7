"""Every benchmark script runs: each entry point, once per side, and its
report names exactly the rows of the committed table that
``check_regression.py`` gates. Kernel and fairness workloads have fixed
sizes; scheduler workloads run at a few hundred tasks. Ratios are not
checked: at these sizes they are noise."""

import json
import os

import pytest

from repro.core import scheduler

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)

# scheduler workload arguments: tasks (dag_ladder: levels, width)
SMALL = {"wide_fanout_wave": (300,), "streaming_trickle": (200,),
         "churn_veto_storm": (1200,), "dag_ladder": (3, 100),
         "fan_in_reduce": (16,)}


def rows(path, key):
    with open(path, encoding="utf-8") as handle:
        return [row["name"] for row in json.load(handle)[key]]


def run_rows(bench, tmp_path, key, *argv):
    out = tmp_path / "report.json"
    assert bench.main([*argv, "--out", str(out)]) == 0
    return rows(out, key)


@pytest.mark.parametrize("script, key", [("bench_kernel", "benchmarks"),
                                         ("bench_fairness", "fairness")])
def test_kernel_scripts_run(load_bench, tmp_path, script, key):
    fresh = run_rows(load_bench(script), tmp_path, key,
                     "--quick", "--repeat", "1")
    assert fresh == rows(os.path.join(ROOT, "BENCH_kernel.json"), key)


@pytest.fixture
def bench_scheduler(load_bench, monkeypatch):
    """``bench_scheduler`` with its workloads at the ``SMALL`` sizes
    (``raising=False``: a script without the row table still runs, at
    its own quick sizes)."""
    bench = load_bench("bench_scheduler")
    table = getattr(bench, "workloads", None)
    monkeypatch.setattr(bench, "workloads", lambda quick: [
        (name, workload, SMALL[name], *reference)
        for name, workload, _args, *reference in table(quick)
    ], raising=False)
    return bench


def test_bench_scheduler_runs(bench_scheduler, tmp_path):
    fresh = run_rows(bench_scheduler, tmp_path, "benchmarks", "--quick")
    assert fresh == rows(os.path.join(ROOT, "BENCH_scheduler.json"),
                         "benchmarks")


def test_scheduler_cross_check_catches_divergence(bench_scheduler,
                                                  monkeypatch):
    """A wave engine that places a wave in the wrong order fails the
    bench; the reference side, under ``scalar_engine()``, is untouched."""
    wave = scheduler.wave_dispatch
    monkeypatch.setattr(scheduler, "wave_dispatch",
                        lambda run, batch, vetoed:
                        wave(run, batch[::-1], vetoed))
    name, workload, args, *reference = bench_scheduler.workloads(True)[0]
    with pytest.raises(AssertionError, match="dispatch engines diverged"):
        bench_scheduler._compare(name, lambda: workload(*args), 1,
                                 *reference)
