"""Differential and bound tests for the control plane's hot path: lazy
snapshot chains against eager images, the O(peers) quorum commit
against the frozen downward scan, and the work and memory that
compaction costs over a long run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import Command, ControlPlane, ControlPlaneConfig
from repro.controlplane.log import NOOP, ReplicatedLog, Snapshot
from repro.controlplane.node import InstallSnapshot, RaftNode
from repro.controlplane.state import ControlState
from repro.faults.partitions import PartitionWindow
from repro.utils.rng import RngRegistry

NAMES = ("d0", "d1", "d2")
SITES = ("a", "b", "c")


def cfg(n_sites=3, **overrides):
    base = dict(n_sites=n_sites, replication_lag_s=0.05,
                heartbeat_interval_s=0.5, election_timeout_s=(3.0, 6.0))
    base.update(overrides)
    return ControlPlaneConfig(**base)


def doc_rows(doc):
    return (len(doc["datasets"]) + len(doc["replicas"])
            + len(doc["dataset_versions"]) + len(doc["endpoints"])
            + sum(len(reps) for _, reps in doc["replicas"]))


def retained_commands(snapshot):
    """Commands a node still keeps to build ``snapshot``'s image."""
    total = 0
    while snapshot is not None and snapshot._doc is None:
        total += len(snapshot._commands)
        snapshot = snapshot._base
    return total


# -- lazy snapshots vs eager images ---------------------------------------------
commands = st.one_of(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(SITES)).map(
        lambda a: Command("add_replica", (a[0], a[1], 1.0))),
    st.tuples(st.sampled_from(NAMES), st.sampled_from(SITES)).map(
        lambda a: Command("drop_replica", a)),
    st.sampled_from(SITES).map(lambda s: Command("endpoint_down", (s,))),
    st.sampled_from(SITES).map(lambda s: Command("endpoint_up", (s,))),
    st.integers(0, 40).map(
        lambda i: Command("register", (f"n{i}", 10.0 * i, "x"))),
)
steps = st.lists(st.one_of(
    st.tuples(st.just("write"), commands),
    st.tuples(st.just("isolate"), st.integers(0, 2)),
    st.tuples(st.just("heal"), st.none()),
    st.tuples(st.just("build"), st.integers(0, 10**6)),
    st.tuples(st.just("wait"), st.floats(0.1, 8.0)),
), min_size=1, max_size=60)


class TestLazySnapshots:
    @settings(max_examples=60, deadline=None)
    @given(steps=steps, threshold=st.integers(1, 8), seed=st.integers(0, 5))
    def test_images_equal_eager_images(self, steps, threshold, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._check_images(monkeypatch, steps, threshold, seed)

    @staticmethod
    def _check_images(monkeypatch, steps, threshold, seed):
        # every applied index has one image (log matching); record it
        # eagerly the first time any node or replay reaches it
        eager: dict[int, dict] = {}
        apply, to_snapshot = ControlState.apply, ControlState.to_snapshot

        def recording_apply(state, command, index):
            apply(state, command, index)
            doc = to_snapshot(state)
            assert eager.setdefault(index, doc) == doc
            assert state.entries == doc_rows(doc)

        monkeypatch.setattr(ControlState, "apply", recording_apply)
        made = []
        compact = ReplicatedLog.compact

        def recording_compact(log, snapshot):
            made.append(snapshot)
            compact(log, snapshot)

        monkeypatch.setattr(ReplicatedLog, "compact", recording_compact)

        plane = ControlPlane(cfg(snapshot_threshold=threshold),
                             RngRegistry(seed))
        plane.bootstrap([Command("register", (n, 100.0, "x")) for n in NAMES])
        t = 0.0
        for op, arg in steps:
            if op == "write":
                plane.submit(arg, t)
            elif op == "isolate" and not plane.partitioned:
                plane.begin_partition(
                    PartitionWindow(t, t + 1.0, "minority", (arg,)), t)
            elif op == "heal" and plane.partitioned:
                plane.end_partition(t)
            elif op == "build" and made:
                snap = made[arg % len(made)]
                assert snap.state == eager[snap.last_index]
            elif op == "wait":
                t += arg
            t += 0.25
            plane.advance(t)
        if plane.partitioned:
            plane.end_partition(t)
        plane.advance(t + 60.0)

        assert plane.converged()
        for node in plane.nodes:
            image = ControlState.from_snapshot(eager[node.state.applied_index])
            assert node.state.fingerprint() == image.fingerprint()
        for snap in made:
            assert snap.state == eager[snap.last_index]

    def test_installed_follower_matches_eager_image(self):
        rng = RngRegistry(0)
        leader = RaftNode(0, 1, election_rng=rng.stream("l"),
                          heartbeat_interval_s=0.5,
                          election_timeout_s=(3.0, 6.0), snapshot_threshold=3)
        leader.on_timer(leader.election_deadline)  # single node: elected
        for i in range(20):
            leader.propose(Command("register", (f"d{i}", 1.0, "x")), 0.0)
            leader.maybe_compact()
        snap = leader.log.snapshot
        assert snap.state == leader.state.to_snapshot()
        follower = RaftNode(1, 2, election_rng=rng.stream("f"),
                            heartbeat_interval_s=0.5,
                            election_timeout_s=(3.0, 6.0),
                            snapshot_threshold=3)
        follower.on_message(InstallSnapshot(leader.term, 0, snap, 0.0), 0.0)
        assert follower.state.fingerprint() == leader.state.fingerprint()
        assert follower.log.known_term(1) == leader.log.known_term(1) == 1


# -- O(peers) quorum commit vs the frozen downward scan --------------------------
def scan_commit(node):
    """The downward scan ``_advance_commit`` used before it took the
    quorum-th largest replicated index; frozen as the oracle."""
    for idx in range(node.log.last_index, node.commit_index, -1):
        if node.log.term_at(idx) != node.term:
            break
        replicated = 1 + sum(
            1 for p in node.peers if node.match_index.get(p, 0) >= idx)
        if replicated >= node.quorum:
            return idx
    return node.commit_index


@st.composite
def leaders(draw):
    n = draw(st.integers(1, 7))
    node = RaftNode(0, n, election_rng=RngRegistry(0).stream("x"),
                    heartbeat_interval_s=0.5, election_timeout_s=(3.0, 6.0),
                    snapshot_threshold=10**9)
    increments = draw(st.lists(st.integers(0, 2), min_size=1, max_size=24))
    term = 0
    for step in increments:
        term += step
        node.log.append(term, NOOP)
    last = node.log.last_index
    base = draw(st.integers(0, last))
    if base:
        node.log.compact(Snapshot(base, node.log.term_at(base), {}))
    node.commit_index = draw(st.integers(base, last))
    node.state.applied_index = node.commit_index
    node.term = term + draw(st.integers(0, 1))
    peers = draw(st.lists(st.sampled_from(node.peers), unique=True)) \
        if node.peers else []
    node.match_index = {p: draw(st.integers(0, last + 2)) for p in peers}
    return node


class TestQuorumCommit:
    @settings(max_examples=400, deadline=None)
    @given(node=leaders())
    def test_matches_downward_scan(self, node):
        expected = scan_commit(node)
        node._advance_commit()
        assert node.commit_index == expected
        assert node.state.applied_index == expected


# -- compaction work and memory over a long run ----------------------------------
def long_run(monkeypatch, mutation, writes=2000):
    """``writes`` writes at ``snapshot_threshold=8`` on 5 sites, one
    follower isolated for a stretch every 100 writes so heals ship
    snapshots. Returns (to_snapshot calls, snapshot images followers
    adopted, compactions, worst chain/rows ratio)."""
    calls = [0]
    to_snapshot = ControlState.to_snapshot

    def counting(state):
        calls[0] += 1
        return to_snapshot(state)

    monkeypatch.setattr(ControlState, "to_snapshot", counting)
    adopted = {}
    deliver = ControlPlane._deliver

    def tracking(plane, src, dst, msg, t):
        before = plane.nodes[dst].state
        deliver(plane, src, dst, msg, t)
        if isinstance(msg, InstallSnapshot) and \
                plane.nodes[dst].state is not before:
            adopted[id(msg.snapshot)] = msg.snapshot

    monkeypatch.setattr(ControlPlane, "_deliver", tracking)
    compactions, worst = [0], [0.0]
    maybe_compact = RaftNode.maybe_compact

    def bounded(node):
        base = node.log.base_index
        maybe_compact(node)
        if node.log.base_index != base:
            compactions[0] += 1
            retained = retained_commands(node.log.snapshot)
            assert retained <= node.log.snapshot.chain_len <= node.state.entries
            worst[0] = max(worst[0], retained / node.state.entries)

    monkeypatch.setattr(RaftNode, "maybe_compact", bounded)

    plane = ControlPlane(cfg(n_sites=5, snapshot_threshold=8),
                         RngRegistry(0))
    t, tickets = 0.0, []
    for i in range(writes):
        if i % 100 == 0 and not plane.partitioned:
            follower = next(n.id for n in plane.nodes
                            if n.id != plane.leader_id())
            plane.begin_partition(
                PartitionWindow(t, t + 20.0, "minority", (follower,)), t)
        if i % 100 == 40 and plane.partitioned:
            plane.end_partition(t)
        tickets.append(plane.submit(mutation(i), t))
        t += 0.2
    if plane.partitioned:
        plane.end_partition(t)
    plane.advance(t + 60.0)
    assert all(ticket.acked for ticket in tickets)
    assert plane.converged()
    return calls[0], len(adopted), compactions[0], worst[0]


class TestCompactionWork:
    def test_images_built_only_when_shipped(self, monkeypatch):
        calls, adopted, compactions, _ = long_run(
            monkeypatch,
            lambda i: Command("register", (f"d{i}", 1.0, "x")))
        assert adopted >= 10
        assert compactions >= 1000
        assert calls == adopted

    def test_retained_chain_stays_within_image(self, monkeypatch):
        # a small catalog churned hard: the log outgrows the image fast
        def churn(i):
            name, site = NAMES[i % 3], SITES[(i // 3) % 3]
            op = "add_replica" if (i // 9) % 2 == 0 else "drop_replica"
            args = (name, site, float(i)) if op == "add_replica" \
                else (name, site)
            return Command("register", (name, 1.0, "x")) if i < 3 \
                else Command(op, args)

        calls, adopted, compactions, worst = long_run(monkeypatch, churn)
        assert compactions >= 1000
        assert calls > adopted  # chains collapsed onto the applied state
        assert 0.0 < worst <= 1.0


class TestEmitMetrics:
    def test_histograms_resolve_their_child_once(self, monkeypatch):
        """Each latency histogram resolves its child once per harvest,
        not once per latency; an empty latency list adds no series."""
        from repro.continuum import Link, Site, Tier, Topology
        from repro.controlplane.runtime import ControlRuntime
        from repro.observe.metrics import MetricFamily, MetricsRegistry

        topo = Topology()
        for s in SITES:
            topo.add_site(Site(s, Tier.EDGE))
        topo.add_link("a", "b", Link(0.0, 10.0))
        topo.add_link("b", "c", Link(0.0, 10.0))
        runtime = ControlRuntime(cfg(), topo)
        runtime.stats.read_latencies.extend([0.001, 0.002, 0.05])
        assert runtime.plane.commit_latencies == []

        resolved = []
        labels = MetricFamily.labels

        def counted(family, **kw):
            if family.kind == "histogram":
                resolved.append(family.name)
            return labels(family, **kw)

        monkeypatch.setattr(MetricFamily, "labels", counted)
        registry = MetricsRegistry()
        runtime.emit_metrics(registry)
        assert resolved == ["controlplane_read_latency_seconds"]
        metrics = registry.snapshot()["metrics"]
        (read,) = metrics["controlplane_read_latency_seconds"]["series"]
        assert read["count"] == 3
        assert metrics["controlplane_commit_latency_seconds"]["series"] == []
