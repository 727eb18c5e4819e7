import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analytic import (
    crossover_bandwidth,
    local_time,
    offload_analysis,
    remote_time,
)


class TestBasics:
    def test_local_time(self):
        assert local_time(10.0, 2.0) == 5.0

    def test_remote_time_components(self):
        # 2*0.5 latency + (100+20)/10 transfer + 10/5 compute
        t = remote_time(10.0, 100.0, remote_speed=5.0, bandwidth_Bps=10.0,
                        latency_s=0.5, result_bytes=20.0)
        assert t == pytest.approx(1.0 + 12.0 + 2.0)

    def test_offload_wins_with_fat_pipe(self):
        d = offload_analysis(work=10.0, data_bytes=100.0, local_speed=1.0,
                             remote_speed=10.0, bandwidth_Bps=1e6)
        assert d.offload_wins
        assert d.speedup > 1

    def test_offload_loses_with_thin_pipe(self):
        d = offload_analysis(work=10.0, data_bytes=100.0, local_speed=1.0,
                             remote_speed=10.0, bandwidth_Bps=1.0)
        assert not d.offload_wins
        assert d.speedup < 1


class TestCrossover:
    def test_hand_computed(self):
        # t_local = 10; remote compute = 1; latency 0 => gain 9
        # B* = 100 / 9
        b = crossover_bandwidth(work=10.0, data_bytes=100.0, local_speed=1.0,
                                remote_speed=10.0)
        assert b == pytest.approx(100.0 / 9.0)

    def test_latency_raises_crossover(self):
        b0 = crossover_bandwidth(10.0, 100.0, 1.0, 10.0, latency_s=0.0)
        b1 = crossover_bandwidth(10.0, 100.0, 1.0, 10.0, latency_s=1.0)
        assert b1 > b0

    def test_none_when_remote_not_worth_it(self):
        # remote slower than local: offload never wins
        assert crossover_bandwidth(10.0, 100.0, 2.0, 1.0) is None

    def test_none_when_latency_eats_gain(self):
        # gain 9 s but 2*5 s latency
        assert crossover_bandwidth(10.0, 100.0, 1.0, 10.0, latency_s=5.0) is None

    def test_zero_payload_crossover_zero(self):
        assert crossover_bandwidth(10.0, 0.0, 1.0, 10.0) == 0.0

    def test_tie_at_crossover(self):
        b = crossover_bandwidth(10.0, 100.0, 1.0, 10.0, latency_s=0.1)
        d = offload_analysis(10.0, 100.0, 1.0, 10.0, bandwidth_Bps=b,
                             latency_s=0.1)
        assert d.remote_time_s == pytest.approx(d.local_time_s)

    @settings(max_examples=200, deadline=None)
    @given(
        work=st.floats(0.1, 100.0),
        data=st.floats(1.0, 1e9),
        s_local=st.floats(0.1, 10.0),
        s_remote=st.floats(0.1, 100.0),
        latency=st.floats(0.0, 1.0),
        bandwidth=st.floats(1.0, 1e9),
    )
    def test_property_decision_consistent_with_crossover(
        self, work, data, s_local, s_remote, latency, bandwidth
    ):
        b_star = crossover_bandwidth(work, data, s_local, s_remote, latency)
        d = offload_analysis(work, data, s_local, s_remote, bandwidth, latency)
        if b_star is None:
            assert not d.offload_wins
        elif bandwidth > b_star * (1 + 1e-9):
            assert d.offload_wins
        elif bandwidth < b_star * (1 - 1e-9):
            assert not d.offload_wins

    @settings(max_examples=100, deadline=None)
    @given(
        b1=st.floats(1.0, 1e6),
        b2=st.floats(1.0, 1e6),
    )
    def test_property_remote_time_monotone_in_bandwidth(self, b1, b2):
        lo, hi = sorted((b1, b2))
        t_hi = remote_time(10.0, 1000.0, 5.0, hi)
        t_lo = remote_time(10.0, 1000.0, 5.0, lo)
        assert t_hi <= t_lo + 1e-9
