"""The Raft node's per-message hot path against the frozen node of
:mod:`tests.oracles.raft_node`, plus what that path may cost: a
follower reads only the carried entries it appends (and one more per
message), and a node calls its election generator once per block of
timeouts, not once per timeout."""

import dataclasses
import math
from contextlib import contextmanager, nullcontext
from itertools import cycle
from unittest import mock

from hypothesis import example, given, settings

from repro.controlplane import Command, ControlPlane, ControlPlaneConfig
from repro.controlplane.cluster import WriteTicket
from repro.controlplane.log import ReplicatedLog, Snapshot
from repro.controlplane.node import TIMEOUT_BLOCK, AppendEntries, RaftNode
from repro.utils.rng import RngRegistry
from tests.controlplane.test_quiescent import pinned, play, scenarios
from tests.oracles import frozen_raft


def plain(value):
    """A message field as plain data: entries as ``(index, term,
    command)`` tuples, a snapshot as its index, term and term runs."""
    if isinstance(value, Snapshot):
        return (value.last_index, value.last_term, value.terms)
    if isinstance(value, tuple):
        return tuple((e.index, e.term, e.command) for e in value)
    return value


def fields(msg):
    """A delivered message as a field tuple, so frozen and production
    messages compare by value and by kind."""
    if isinstance(msg, WriteTicket):
        return ("client", msg.command, msg.submitted_at)
    names = getattr(msg, "_fields", None) or \
        [f.name for f in dataclasses.fields(msg)]
    return (type(msg).__name__,
            *(plain(getattr(msg, name)) for name in names))


def recording(engine, stream):
    """``engine`` with every delivery appended to ``stream``."""
    deliver = ControlPlane._deliver

    def record(plane, src, dst, msg, t):
        stream.append((t, src, dst, fields(msg)))
        deliver(plane, src, dst, msg, t)

    @contextmanager
    def run():
        with engine(), mock.patch.object(ControlPlane, "_deliver", record):
            yield
    return run


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
# a leader isolated with two uncommitted writes: once healed it
# truncates them for the majority's entries, then appends past them
@example((ControlPlaneConfig(n_sites=3, replication_lag_s=0.05,
                             heartbeat_interval_s=0.5,
                             election_timeout_s=(2.5, 5.0)), 0, [
    (1.0, ("advance", 0.0)), (0.0, ("partition", "leader", [0])),
    (0.1, ("submit", None)), (0.1, ("submit", None)),
    (10.0, ("submit", None)), (0.5, ("submit", None)),
    (0.0, ("heal",))]))
# idle rounds replayed across a heal, each run of absorbed draws
# leaving the last one as the deadline
@example(pinned(5, 0.05, 0.5, 2.5, 1, [
    (0.0, ("submit", None)), (40.0, ("advance", 0.0)),
    (0.0, ("partition", "minority", [1, 2])), (30.0, ("heal",)),
    (1.0, ("submit", 3)), (50.0, ("advance", 0.0))]))
def test_nodes_match_frozen_nodes(scenario):
    config, seed, steps = scenario
    delivered, reference = [], []
    assert play(config, seed, steps, recording(nullcontext, delivered)) == \
        play(config, seed, steps, recording(frozen_raft, reference))
    assert delivered == reference


# -- what the hot path costs -------------------------------------------------------
class CountingEntries(tuple):
    """Carried entries that count each one the receiving node reads."""

    reads = 0

    def __iter__(self):
        for entry in tuple.__iter__(self):
            CountingEntries.reads += 1
            yield entry

    def __getitem__(self, key):
        got = tuple.__getitem__(self, key)
        CountingEntries.reads += len(got) if isinstance(key, slice) else 1
        return got


class CountingGenerator:
    """An election stream that counts the calls made into it."""

    def __init__(self, generator):
        self.generator = generator
        self.calls = 0

    def uniform(self, low, high, size=None):
        self.calls += 1
        return self.generator.uniform(low, high, size)


class CountingRegistry(RngRegistry):
    def stream(self, name):
        generator = super().stream(name)
        if name.startswith("ctl:election:"):
            return CountingGenerator(generator)
        return generator


def test_burst_costs_per_appended_entry(monkeypatch):
    """A burst of writes faster than the lag keeps several overlapping
    AppendEntries in flight per follower. The followers read at most
    one carried entry per message beyond those they append, and each
    node calls its generator at most once per block of timeouts it
    uses, plus once per replayed run of idle rounds."""
    counts = dict(delivered=0, carried=0, appended=0)
    inside = [False]
    append = ReplicatedLog.append

    def counting_append(log, term, command):
        counts["appended"] += inside[0]
        return append(log, term, command)

    deliver = ControlPlane._deliver

    def counting_deliver(plane, src, dst, msg, t):
        if not isinstance(msg, AppendEntries):
            deliver(plane, src, dst, msg, t)
            return
        counts["delivered"] += 1
        counts["carried"] += len(msg.entries)
        msg = AppendEntries(msg.term, msg.leader, msg.prev_index,
                            msg.prev_term, CountingEntries(msg.entries),
                            msg.leader_commit, msg.sent_at)
        inside[0] = True
        try:
            deliver(plane, src, dst, msg, t)
        finally:
            inside[0] = False

    used: dict[int, int] = {}
    absorbed: dict[int, int] = {}
    draw, absorb = RaftNode._draw_timeout, RaftNode.absorb_heartbeats

    def counting_draw(node, now):
        used[node.id] = used.get(node.id, 0) + 1
        return draw(node, now)

    def counting_absorb(node, leader, last_contact, rounds):
        used[node.id] = used.get(node.id, 0) + rounds
        absorbed[node.id] = absorbed.get(node.id, 0) + 1
        absorb(node, leader, last_contact, rounds)

    monkeypatch.setattr(ReplicatedLog, "append", counting_append)
    monkeypatch.setattr(ControlPlane, "_deliver", counting_deliver)
    monkeypatch.setattr(RaftNode, "_draw_timeout", counting_draw)
    monkeypatch.setattr(RaftNode, "absorb_heartbeats", counting_absorb)
    monkeypatch.setattr(CountingEntries, "reads", 0)

    plane = ControlPlane(ControlPlaneConfig.for_lag(0.05, n_sites=5),
                         CountingRegistry(0))
    tickets = [plane.submit(Command("register", (f"d{i}", 1.0, "x")),
                            0.01 * i) for i in range(400)]
    plane.advance(60.0)
    assert all(ticket.acked for ticket in tickets)
    assert plane.converged()

    bound = counts["delivered"] + counts["appended"]
    assert counts["carried"] > 3 * bound  # the burst does carry prefixes
    assert CountingEntries.reads <= bound
    assert max(used.values()) > 4 * TIMEOUT_BLOCK
    for node in plane.nodes:
        assert node._rng.calls <= math.ceil(
            used[node.id] / TIMEOUT_BLOCK) + absorbed.get(node.id, 0)


def test_block_draws_equal_scalar_draws():
    """500 deadlines from buffered blocks, with absorbed runs of idle
    rounds that straddle block boundaries, equal the deadlines that
    one scalar draw per timeout gives from a fresh generator."""
    lo, hi = 3.0, 6.0
    node = RaftNode(0, 3, election_rng=RngRegistry(7).stream("e"),
                    heartbeat_interval_s=0.5, election_timeout_s=(lo, hi),
                    snapshot_threshold=8)
    scalar = RngRegistry(7).stream("e")
    got = [node.election_deadline]
    expected = [0.0 + float(scalar.uniform(lo, hi))]
    taken, straddles = 1, 0
    t = 0.0
    for rounds in cycle([1, 1, 5, 1, TIMEOUT_BLOCK - 3, 1,
                         2 * TIMEOUT_BLOCK + 1, 7]):
        if len(got) == 500:
            break
        t += 1.25
        if rounds == 1:
            got.append(node._draw_timeout(t))
        else:
            straddles += (taken // TIMEOUT_BLOCK
                          != (taken + rounds - 1) // TIMEOUT_BLOCK)
            node.absorb_heartbeats(1, t, rounds)
            got.append(node.election_deadline)
        for _ in range(rounds):
            timeout = float(scalar.uniform(lo, hi))
        expected.append(t + timeout)
        taken += rounds
    assert straddles >= 10
    assert got == expected
