"""Cluster-level consensus behaviour: elections, determinism,
split-brain safety, and post-partition convergence — the acceptance
pins for the replicated control plane."""

import pytest

from repro.controlplane import Command, ControlPlane, ControlPlaneConfig
from repro.controlplane.node import Role
from repro.errors import ControlPlaneError
from repro.faults.partitions import PartitionWindow
from repro.utils.rng import RngRegistry


def cfg(**overrides):
    base = dict(n_sites=5, replication_lag_s=0.05,
                heartbeat_interval_s=0.5, election_timeout_s=(3.0, 6.0))
    base.update(overrides)
    return ControlPlaneConfig(**base)


def mutation(i):
    if i % 3 == 0:
        return Command("register", (f"d{i}", 100.0 * (i + 1), "generic"))
    name = f"d{3 * (i // 3)}"
    if i % 3 == 1:
        return Command("add_replica", (name, f"s{i % 4}", float(i)))
    return Command("endpoint_down", (f"s{i % 4}",))


class TestConfig:
    def test_rejects_bad_read_mode(self):
        with pytest.raises(ControlPlaneError):
            cfg(read_mode="eventually")

    def test_rejects_degenerate_cluster(self):
        with pytest.raises(ControlPlaneError):
            cfg(n_sites=0)

    def test_rejects_election_window_inside_heartbeat(self):
        with pytest.raises(ControlPlaneError):
            cfg(heartbeat_interval_s=2.0, election_timeout_s=(3.0, 6.0))

    @pytest.mark.parametrize("field, value", [
        ("max_read_retries", -3),
        ("rpc_failure_threshold", 0),
        ("rpc_reset_timeout_s", -1.0),
        ("rpc_reset_timeout_s", float("inf")),
        ("catchup_cooldown_s", -1.0),
        ("catchup_cooldown_s", float("nan")),
        ("catchup_max_fast", -1),
        ("election_timeout_s", (3.0,)),
        ("election_timeout_s", 3.0),
    ])
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ControlPlaneError, match=field):
            cfg(**{field: value})

    def test_for_lag_derives_consistent_timers(self):
        for lag in (0.0, 0.05, 2.0, 32.0):
            c = ControlPlaneConfig.for_lag(lag, n_sites=5, read_mode="stale")
            assert c.replication_lag_s == lag
            assert c.heartbeat_interval_s >= 2.5 * lag
            lo, hi = c.election_timeout_s
            assert lo > 2 * c.heartbeat_interval_s
            # a leased leader must be deposable only after its lease dies
            assert c.lease_duration_s < lo


class TestWarmStart:
    def test_leader_exists_at_t0(self):
        plane = ControlPlane(cfg())
        assert plane.leader_id() is not None

    def test_write_commits_within_a_few_lags(self):
        plane = ControlPlane(cfg())
        ticket = plane.submit(Command("register", ("d", 1.0, "x")), 0.0)
        plane.advance(1.0)
        assert ticket.acked
        # client->leader + append + reply = 3 one-way lags
        assert ticket.acked_at - ticket.submitted_at == pytest.approx(0.15)

    def test_cold_start_elects_exactly_one_leader(self):
        plane = ControlPlane(cfg(warm_start=False), RngRegistry(7))
        plane.advance(30.0)
        leaders = [n.id for n in plane.nodes if n.role is Role.LEADER]
        assert len(leaders) == 1
        assert plane.elections_started >= 1


class TestDeterminism:
    def _run(self, seed, *, warm=False, submit_every=2.0, horizon=120.0):
        plane = ControlPlane(cfg(warm_start=warm), RngRegistry(seed))
        i, t = 0, 0.0
        while t < horizon:
            plane.advance(t)
            if plane.leader_id() is not None:
                plane.submit(mutation(i), t)
                i += 1
            t += submit_every
        plane.advance(horizon + 60.0)
        return plane

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_same_seed_same_winners_and_commit_order(self, seed):
        a = self._run(seed)
        b = self._run(seed)
        assert [n.terms_led for n in a.nodes] == [n.terms_led for n in b.nodes]
        assert a.elections_started == b.elections_started
        # identical commit order => identical applied images everywhere
        assert a.fingerprints() == b.fingerprints()
        assert a.writes_acked == b.writes_acked
        assert a.commit_latencies == b.commit_latencies

    def test_different_seeds_may_elect_different_winners(self):
        winners = {self._run(s).leader_id() for s in range(8)}
        assert len(winners) > 1

    def test_steady_run_converges(self):
        plane = self._run(5, warm=True)
        assert plane.converged()
        assert len(set(plane.fingerprints())) == 1


class TestSplitBrain:
    """A minority island never serves a write ack (acceptance pin)."""

    def _partitioned_plane(self):
        plane = ControlPlane(cfg(), RngRegistry(1))
        plane.advance(5.0)
        old_leader = plane.leader_id()
        plane.begin_partition(PartitionWindow(5.0, 500.0, "leader"), 5.0)
        return plane, old_leader

    def test_minority_leader_never_acks(self):
        plane, old_leader = self._partitioned_plane()
        ticket = plane.submit(
            Command("register", ("rogue", 1.0, "x")), 6.0, target=old_leader)
        plane.advance(400.0)
        assert not ticket.acked
        assert not plane.quorum_connected(old_leader)

    def test_majority_elects_successor_and_keeps_committing(self):
        plane, old_leader = self._partitioned_plane()
        plane.advance(60.0)
        new_leader = plane.leader_id()
        assert new_leader is not None
        assert new_leader != old_leader
        assert plane.nodes[new_leader].term > plane.nodes[old_leader].term
        ticket = plane.submit(Command("register", ("ok", 1.0, "x")), 60.0)
        plane.advance(120.0)
        assert ticket.acked

    def test_superseded_minority_entry_never_commits(self):
        plane, old_leader = self._partitioned_plane()
        rogue = plane.submit(
            Command("register", ("rogue", 1.0, "x")), 6.0, target=old_leader)
        plane.advance(60.0)
        good = plane.submit(Command("register", ("ok", 1.0, "x")), 60.0)
        plane.end_partition(100.0)
        plane.advance(300.0)
        assert good.acked
        assert not rogue.acked
        # the rogue entry was truncated everywhere, not just unacked
        assert all("rogue" not in n.state for n in plane.nodes)

    def test_minority_write_at_index_majority_compacted_never_acks(self):
        plane = ControlPlane(cfg(snapshot_threshold=4), RngRegistry(1))
        plane.advance(5.0)
        old_leader = plane.leader_id()
        plane.begin_partition(PartitionWindow(5.0, 500.0, "leader"), 5.0)
        plane.advance(60.0)
        majority = [plane.submit(mutation(3 * i), 60.0 + i) for i in range(30)]
        plane.advance(120.0)
        assert all(ticket.acked for ticket in majority)
        assert all(n.log.base_index > 2 for n in plane.nodes
                   if n.id != old_leader)
        ghost = plane.submit(Command("register", ("ghost", 1.0, "x")), 120.0,
                             target=old_leader)
        plane.advance(200.0)
        # the isolated leader appends at its own index 2, term 1; the
        # majority committed index 2 under a later term and compacted it
        assert (ghost.index, ghost.term) == (2, 1)
        assert not ghost.acked
        assert ghost.failed
        assert "ghost" not in plane.committed_state()


class TestHealing:
    def test_heal_converges_within_bounded_catchup(self):
        plane = ControlPlane(cfg(), RngRegistry(2))
        t = 0.0
        for i in range(10):
            plane.submit(mutation(i), t)
            t += 1.0
        plane.begin_partition(
            PartitionWindow(t, t + 100.0, "minority", (0, 1)), t)
        for i in range(10, 20):
            plane.submit(mutation(i), t)
            t += 1.0
        plane.advance(t)
        assert not plane.converged()
        plane.end_partition(t + 100.0)
        # bounded catch-up: a handful of heartbeat rounds, not an epoch
        heal_budget = 20 * plane.config.heartbeat_interval_s
        plane.advance(t + 100.0 + heal_budget)
        assert plane.converged()
        assert len(set(plane.fingerprints())) == 1

    def test_heal_after_leader_isolation_reconverges_to_majority_log(self):
        plane = ControlPlane(cfg(), RngRegistry(4))
        plane.advance(5.0)
        plane.begin_partition(PartitionWindow(5.0, 80.0, "leader"), 5.0)
        plane.advance(60.0)
        committed = []
        for i in range(5):
            committed.append(plane.submit(mutation(3 * i), 60.0 + i))
        plane.end_partition(80.0)
        plane.advance(200.0)
        assert all(ticket.acked for ticket in committed)
        assert plane.converged()

    def test_partition_event_bookkeeping(self):
        plane = ControlPlane(cfg(), RngRegistry(0))
        plane.advance(1.0)
        event = plane.begin_partition(
            PartitionWindow(1.0, 50.0, "minority", (3, 4)), 1.0)
        assert plane.partitioned
        assert event.island == (3, 4)
        plane.end_partition(50.0)
        assert not plane.partitioned
        assert event.healed_at == 50.0
        # the quiescent-round replay computes these instead of counting
        assert plane.messages_sent == 1072
        assert plane.messages_dropped == 485


class TestNonFiniteTime:
    """Every entry point that advances the clock rejects a non-finite
    instant instead of looping forever on it."""

    @pytest.mark.parametrize("now", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("call", [
        lambda plane, now: plane.advance(now),
        lambda plane, now: plane.submit(Command("register", ("d", 1.0, "x")),
                                        now),
        lambda plane, now: plane.begin_partition(
            PartitionWindow(1.0, 2.0, "minority", (4,)), now),
        lambda plane, now: plane.end_partition(now),
    ], ids=["advance", "submit", "begin_partition", "end_partition"])
    def test_rejected(self, call, now):
        plane = ControlPlane(cfg(), RngRegistry(0))
        plane.advance(1.0)
        with pytest.raises(ControlPlaneError, match="cannot advance"):
            call(plane, now)
        assert plane.now == 1.0 and not plane.partitioned


class TestBootstrap:
    def test_bootstrap_prefix_applies_everywhere(self):
        plane = ControlPlane(cfg())
        plane.bootstrap([
            Command("register", ("d", 100.0, "x")),
            Command("add_replica", ("d", "edge", 0.0)),
        ])
        assert all(n.state.has_replica("d", "edge") for n in plane.nodes)
        assert plane.writes_submitted == 0

    def test_bootstrap_after_start_is_illegal(self):
        plane = ControlPlane(cfg())
        plane.advance(1.0)
        with pytest.raises(ControlPlaneError):
            plane.bootstrap([Command("register", ("d", 1.0, "x"))])


class TestSnapshots:
    def test_compaction_still_converges_and_acks(self):
        plane = ControlPlane(cfg(snapshot_threshold=8), RngRegistry(3))
        t, tickets = 0.0, []
        for i in range(60):
            tickets.append(plane.submit(mutation(i), t))
            t += 0.5
        plane.advance(t + 30.0)
        assert all(ticket.acked for ticket in tickets)
        assert plane.converged()
        assert any(n.log.base_index > 0 for n in plane.nodes)
