"""Differential test of the quiescent-round replay against the
message-by-message loop: random clusters, lags on both sides of
``2·lag < hb``, writes, partitions of every style and uneven ``advance``
schedules must leave every node, counter and ticket exactly where
:func:`tests.oracles.stepwise` leaves them, at every boundary."""

from contextlib import nullcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controlplane import Command, ControlPlane, ControlPlaneConfig
from repro.faults.partitions import PartitionWindow
from repro.utils.rng import RngRegistry
from tests.oracles import stepwise


def observe(plane, tickets):
    nodes = [(n.term, n.role, n.voted_for, n.leader_hint, n.commit_index,
              n.state.applied_index, n.state.fingerprint(),
              n.log.base_index, n.log.last_index, n.log.last_term,
              n.last_leader_contact, n.election_deadline,
              sorted(n.ack_time.items()), n.heartbeat_due)
             for n in plane.nodes]
    return (nodes, plane.messages_sent, plane.messages_dropped,
            list(plane.commit_latencies), plane.now,
            [(tk.index, tk.term, tk.leader, tk.acked_at, tk.failed)
             for tk in tickets])


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 7))
    hb = draw(st.sampled_from([0.2, 0.5, 1.0]))
    # lag/hb ratios on both sides of the 2·lag < hb guard
    lag = hb * draw(st.sampled_from([0.0, 0.1, 0.3, 0.49, 0.5, 0.8, 1.5]))
    lo = hb * draw(st.sampled_from([2.5, 4.0, 8.0]))
    config = ControlPlaneConfig(
        n_sites=n, replication_lag_s=lag, heartbeat_interval_s=hb,
        election_timeout_s=(lo, 2.0 * lo),
        snapshot_threshold=draw(st.integers(1, 12)),
        warm_start=draw(st.booleans()))
    node = st.integers(0, n - 1)
    step = st.one_of(
        st.tuples(st.just("advance"), st.just(0.0)),
        st.tuples(st.just("advance"), st.floats(0.0, 12.0)),
        st.tuples(st.just("submit"), st.one_of(st.none(), node)),
        st.tuples(st.just("partition"), st.sampled_from(
            ["leader", "single", "minority"]),
            st.lists(node, min_size=1, max_size=max(1, (n - 1) // 2),
                     unique=True)),
        st.tuples(st.just("heal")),
    )
    steps = draw(st.lists(st.tuples(st.floats(0.0, 6.0), step),
                          min_size=1, max_size=14))
    return config, draw(st.integers(0, 3)), steps


def play(config, seed, steps, engine):
    """Run the scenario, observing the plane after every step."""
    with engine():
        plane = ControlPlane(config, RngRegistry(seed))
        t, tickets, seen = 0.0, [], []
        for i, (dt, (op, *args)) in enumerate(steps):
            t += dt
            if op == "advance":
                plane.advance(t + args[0])
            elif op == "submit":
                tickets.append(plane.submit(
                    Command("register", (f"d{i}", 1.0, "x")), t,
                    target=args[0]))
            elif op == "partition" and not plane.partitioned:
                style, island = args
                if style == "single":
                    island = island[:1]
                plane.begin_partition(
                    PartitionWindow(t, t + 1.0, style, tuple(island)), t)
            elif op == "heal" and plane.partitioned:
                plane.end_partition(t)
            seen.append(observe(plane, tickets))
        plane.advance(t + 20.0)
        seen.append(observe(plane, tickets))
    return seen


def pinned(n, lag, hb, lo, seed, steps):
    return (ControlPlaneConfig(n_sites=n, replication_lag_s=lag,
                               heartbeat_interval_s=hb,
                               election_timeout_s=(lo, 2.0 * lo),
                               snapshot_threshold=1), seed, steps)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
# a request to the isolated node is forwarded into the majority's island
@example(pinned(3, 0.3, 1.0, 2.5, 0, [
    (1.0, ("partition", "single", [0])), (0.75, ("submit", 0))]))
# after a heal, a follower's election deadline can precede the first
# heartbeat that would reach it
@example(pinned(2, 0.05, 0.5, 2.0, 1, [
    (5.0, ("advance", 0.0)), (5.5, ("advance", 0.0)),
    (6.0, ("submit", None)), (6.0, ("partition", "leader", [0])),
    (1.5, ("heal",))]))
# a lone leader commits on propose and compacts at its next heartbeat
@example(pinned(1, 0.0, 0.2, 0.5, 0, [(0.0, ("submit", None))]))
def test_replay_matches_message_loop(scenario):
    config, seed, steps = scenario
    assert play(config, seed, steps, nullcontext) == \
        play(config, seed, steps, stepwise)


def test_idle_plane_is_replayed(monkeypatch):
    """A healthy five-site plane left alone for 100 s is replayed, not
    simulated, yet ends where the message loop ends."""
    config = ControlPlaneConfig(n_sites=5, replication_lag_s=0.05,
                                heartbeat_interval_s=0.5,
                                election_timeout_s=(3.0, 6.0))
    reference = play(config, 0, [(0.0, ("advance", 100.0))], stepwise)
    delivered = [0]
    deliver = ControlPlane._deliver

    def counting(plane, src, dst, msg, t):
        delivered[0] += 1
        deliver(plane, src, dst, msg, t)

    monkeypatch.setattr(ControlPlane, "_deliver", counting)
    assert play(config, 0, [(0.0, ("advance", 100.0))],
                nullcontext) == reference
    # only the two rounds that ship the leader's barrier entry and then
    # its commit index are delivered; the ~200 idle rounds after are not
    assert delivered[0] == 16
