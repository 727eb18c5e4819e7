"""Read-mode semantics of the client session: latencies, truth pinning,
failover, degradation, and the breaker on the leader RPC path."""

import pytest

from repro.controlplane import (
    ControlPlane,
    ControlPlaneConfig,
    ControlPlaneSession,
)
from repro.faults.partitions import PartitionWindow
from repro.resilience import BreakerState
from repro.utils.rng import RngRegistry


def make(read_mode, **overrides):
    base = dict(n_sites=5, replication_lag_s=0.05,
                heartbeat_interval_s=0.5, election_timeout_s=(3.0, 6.0),
                read_mode=read_mode)
    base.update(overrides)
    plane = ControlPlane(ControlPlaneConfig(**base), RngRegistry(0))
    return plane, ControlPlaneSession(plane)


class TestHealthyLatencies:
    def test_stale_costs_one_local_rtt(self):
        plane, session = make("stale")
        latency = session.placement_read(1.0)
        assert latency == plane.config.local_read_rtt_s
        assert not session.pinned_truth
        assert session.stats.stale_reads == 1

    def test_lease_costs_one_leader_round_trip(self):
        plane, session = make("lease")
        latency = session.placement_read(1.0)
        assert latency == pytest.approx(2 * plane.config.replication_lag_s)
        assert session.pinned_truth
        assert session.stats.lease_reads == 1

    def test_quorum_costs_two_round_trips(self):
        plane, session = make("quorum")
        latency = session.placement_read(1.0)
        assert latency == pytest.approx(4 * plane.config.replication_lag_s)
        assert session.pinned_truth
        assert session.stats.quorum_reads == 1

    def test_stale_pins_attached_follower_state(self):
        plane, session = make("stale")
        session.placement_read(1.0)
        assert session.current_state() is plane.node_state(
            plane.config.attached_node)


class TestUnavailability:
    def test_quorum_waits_out_leaderless_window(self):
        # cold start: no leader until the first election completes
        plane, session = make("quorum", warm_start=False)
        latency = session.placement_read(0.0)
        assert session.pinned_truth
        assert session.stats.unavailable_events == 1
        assert session.stats.unavailable_s > 0.0
        assert latency > 4 * plane.config.replication_lag_s

    def test_quorum_degrades_when_retries_exhaust(self):
        plane, session = make(
            "quorum", warm_start=False,
            election_timeout_s=(50.0, 60.0), max_read_retries=3)
        latency = session.placement_read(0.0)
        assert not session.pinned_truth
        assert session.stats.degraded_reads == 1
        assert session.stats.stale_reads == 1
        assert latency == pytest.approx(
            3 * plane.config.read_retry_interval_s
            + plane.config.local_read_rtt_s)

    def test_retried_read_runs_the_plane_ahead_of_the_caller(self):
        # each probe advances the plane to its own time, so a retried
        # read leaves the plane's clock past the read's stamp; a caller
        # stamped in between is served at the plane's later clock. A
        # plane driven by kernel events could not look ahead like this.
        plane, session = make("quorum")
        plane.advance(1.0)
        plane.begin_partition(PartitionWindow(1.0, 400.0, "leader"), 1.0)
        now = 2.0
        session.placement_read(now)
        assert session.pinned_truth          # a majority leader answered
        assert session.stats.unavailable_events == 1
        assert plane.now > now
        assert plane.now == now + session.stats.unavailable_s
        ahead = plane.now
        plane.advance(now + 0.5)
        assert plane.now == ahead

    def test_breaker_trips_and_short_circuits_probing(self):
        plane, session = make(
            "quorum", warm_start=False,
            election_timeout_s=(200.0, 300.0), max_read_retries=2)
        for t in (0.0, 5.0, 10.0):
            session.placement_read(t)
        breaker = session.breakers.get("ctl:leader-rpc")
        assert breaker.trips == 1
        assert breaker.state(15.0) is BreakerState.OPEN
        # blocked breaker: degrade instantly instead of burning retries
        latency = session.placement_read(15.0)
        assert latency == pytest.approx(plane.config.local_read_rtt_s)
        assert session.stats.degraded_reads == 4

    def test_lease_falls_back_to_retry_path_without_leader(self):
        plane, session = make(
            "lease", warm_start=False,
            election_timeout_s=(50.0, 60.0), max_read_retries=2)
        session.placement_read(0.0)
        assert not session.pinned_truth
        assert session.stats.degraded_reads == 1


class TestStaleFailover:
    def test_failover_to_freshest_when_attached_site_cut_off(self):
        plane, session = make("stale", max_staleness_s=5.0)
        plane.advance(1.0)
        plane.begin_partition(
            PartitionWindow(1.0, 400.0, "single", (0,)), 1.0)
        session.placement_read(60.0)
        if plane.config.attached_node not in (plane.leader_id(),):
            assert session.stats.failover_reads == 1
            fresh = plane.freshest_node()
            assert session.current_state() is plane.node_state(fresh)

    def test_violation_counted_when_every_node_is_stale(self):
        plane, session = make(
            "stale", n_sites=2, max_staleness_s=5.0)
        plane.advance(1.0)
        # a 2-node cluster split leaves no quorum anywhere: heartbeats
        # stop and even the freshest node ages past the bound
        plane.begin_partition(
            PartitionWindow(1.0, 400.0, "single", (1,)), 1.0)
        session.placement_read(60.0)
        assert session.stats.staleness_violations == 1


class TestLatencyStats:
    def test_p99_and_mean_track_recorded_reads(self):
        plane, session = make("quorum")
        for t in range(1, 6):
            session.placement_read(float(t))
        stats = session.stats
        assert stats.reads == 5
        assert len(stats.read_latencies) == 5
        assert stats.read_latency_p99() == pytest.approx(
            4 * plane.config.replication_lag_s)
        assert stats.read_latency_mean() == pytest.approx(
            4 * plane.config.replication_lag_s)
