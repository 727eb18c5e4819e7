"""The overhead guards' gating rule (``benchmarks/bench_kernel.py
--metrics-guard`` and ``--tracer-guard``): the median of the per-round
instrumented/bare ratios, not one best-of per side."""

import pytest


@pytest.fixture
def bench_kernel(load_bench):
    return load_bench("bench_kernel")


def guard(monkeypatch, bench_kernel, bare, metered, flag="--metrics-guard"):
    """Run a guard's CLI on recorded round timings."""
    def timed_rounds(fns, rounds):
        assert len(fns) == 2 and rounds == len(bare) == len(metered)
        observed = (40_840, 999.5)
        return [(list(bare), observed), (list(metered), observed)]

    monkeypatch.setattr(bench_kernel, "timed_rounds", timed_rounds)
    return bench_kernel.main([flag, "--repeat", str(len(bare))])


BARE = [0.150, 0.162, 0.148, 0.171, 0.155, 0.149, 0.158]


def test_one_noisy_round_of_seven_passes(monkeypatch, bench_kernel):
    # every round reads +2% but one, where the host ran the bare call
    # fast and the metered call slow. A best-of per side would read
    # 0.151 / 0.125 = +21% and fail; the median ratio reads +2%.
    bare = list(BARE)
    metered = [b * 1.02 for b in BARE]
    bare[3], metered[3] = 0.125, 0.240
    assert guard(monkeypatch, bench_kernel, bare, metered) == 0


def test_steady_fifteen_percent_overhead_fails(monkeypatch, bench_kernel):
    metered = [b * 1.15 for b in BARE]
    assert guard(monkeypatch, bench_kernel, BARE, metered) == 1


def test_ratios_pair_rounds_not_sides(monkeypatch, bench_kernel):
    # the host slows down over the run, both sides alike: per-round
    # ratios read +5%, though the slowest bare call is faster than the
    # fastest metered one
    bare = [0.10 * 1.1 ** i for i in range(7)]
    metered = [b * 1.05 for b in bare]
    assert guard(monkeypatch, bench_kernel, bare, metered) == 0


def test_recorder_must_not_change_the_simulation(bench_kernel, monkeypatch):
    def timed_rounds(fns, rounds):
        return [([0.1] * rounds, (100, 1.0)), ([0.1] * rounds, (101, 1.0))]

    monkeypatch.setattr(bench_kernel, "timed_rounds", timed_rounds)
    with pytest.raises(AssertionError, match="recorder changed"):
        bench_kernel.metrics_overhead_guard(repeat=3)


def test_tracer_guard_gates_on_its_own_threshold(monkeypatch, bench_kernel):
    # a steady +12% is inside the tracer's 16% but past the recorder's 10%
    traced = [b * 1.12 for b in BARE]
    assert guard(monkeypatch, bench_kernel, BARE, traced) == 1
    assert guard(monkeypatch, bench_kernel, BARE, traced,
                 flag="--tracer-guard") == 0
    traced = [b * 1.20 for b in BARE]
    assert guard(monkeypatch, bench_kernel, BARE, traced,
                 flag="--tracer-guard") == 1


def test_tracer_must_not_change_the_simulation(bench_kernel, monkeypatch):
    def timed_rounds(fns, rounds):
        return [([0.1] * rounds, (250.9, 150)),
                ([0.1] * rounds, (251.0, 150))]

    monkeypatch.setattr(bench_kernel, "timed_rounds", timed_rounds)
    with pytest.raises(AssertionError, match="tracer changed"):
        bench_kernel.tracer_overhead_guard(repeat=3)
