"""The simulated control-plane cluster: N Raft nodes, one message fabric.

The cluster is *clock-passive*: it never schedules anything on the
discrete-event kernel. Callers (the scheduler, a session, tests) push
simulated time forward with :meth:`ControlPlane.advance`, and the plane
drains its internal ``(deliver_at, seq)``-ordered queue plus node
timers up to that instant. ``advance`` is monotone and idempotent for
``now`` at or below the internal clock, so any layer may call it freely
without perturbing another layer's view — the same discipline the
resilience breakers use.

Partitions split the *control* sites into islands; data-plane traffic
and client→control messages are unaffected (a client can always reach
its nearest control site — it just might learn stale things from it).
A minority island's leader keeps accepting proposals but can never
reach quorum, so no write is ever acknowledged from a minority: the
split-brain safety the acceptance tests pin.

Quiescent heartbeat rounds are not simulated one message at a time.
When a leader's heartbeat timer is the next event and its island is
idle, :meth:`ControlPlane._replay_idle_rounds` replays in one step every
round whose last reply lands by ``now`` and before the first message
queued for the island (or the first client request anywhere, which may
be forwarded into it). Idle means: the leader's whole log committed,
its last entry from the current term; every reachable follower a
same-term follower whose log end, ``match_index``/``next_index`` and
commit index equal the leader's, with its election deadline after the
first delivery; no node due to compact; and each round's replies
landing before the next heartbeat (``2·lag < hb``). An isolated leader
replays its dropped rounds whatever its commit state. The replay sets
exactly what the message loop would have: follower contact, hint and
last election draw (``k`` draws taken in one call), leader ack times
and heartbeat deadline, and the send, drop and sequence counters.
Islands exchange nothing while split, so each is replayed on its own;
anything else falls through to the message loop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.controlplane.log import Command
from repro.controlplane.node import RaftNode, Role, append_all
from repro.errors import ControlPlaneError
from repro.faults.partitions import PartitionWindow
from repro.resilience.retry import RetryBudget
from repro.utils.rng import RngRegistry
from repro.utils.validation import check_non_negative, check_positive

READ_MODES = ("quorum", "stale", "lease")


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Replication knobs for one run (all seconds, simulated).

    ``replication_lag_s`` is the one-way message delay between control
    sites — the single most important knob: stale reads diverge by
    roughly the lag × mutation rate, quorum reads pay ~4× lag.
    """

    n_sites: int = 3
    replication_lag_s: float = 0.05
    heartbeat_interval_s: float = 0.5
    election_timeout_s: tuple[float, float] = (3.0, 6.0)
    lease_duration_s: float = 2.0
    snapshot_threshold: int = 64
    read_mode: str = "quorum"
    local_read_rtt_s: float = 0.002
    max_staleness_s: float = 5.0
    attached_node: int = 0
    warm_start: bool = True
    read_retry_interval_s: float = 1.0
    max_read_retries: int = 12
    catchup_max_fast: int = 64
    catchup_cooldown_s: float = 5.0
    rpc_failure_threshold: int = 3
    rpc_reset_timeout_s: float = 10.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ControlPlaneError(
                f"n_sites must be >= 1, got {self.n_sites}")
        if self.read_mode not in READ_MODES:
            raise ControlPlaneError(
                f"unknown read mode {self.read_mode!r}; known: {READ_MODES}")
        check_non_negative("replication_lag_s", self.replication_lag_s)
        check_positive("heartbeat_interval_s", self.heartbeat_interval_s)
        try:
            lo, hi = self.election_timeout_s
        except (TypeError, ValueError):
            raise ControlPlaneError(
                f"election_timeout_s must be a (low, high) pair, got "
                f"{self.election_timeout_s!r}") from None
        if not (0 < lo < hi):
            raise ControlPlaneError(
                f"election_timeout_s must be an increasing positive pair, "
                f"got {self.election_timeout_s}")
        if lo <= 2 * self.heartbeat_interval_s:
            raise ControlPlaneError(
                "election timeout must exceed two heartbeat intervals or "
                "healthy leaders get deposed")
        check_positive("lease_duration_s", self.lease_duration_s)
        if self.snapshot_threshold < 1:
            raise ControlPlaneError(
                f"snapshot_threshold must be >= 1, got "
                f"{self.snapshot_threshold}")
        check_non_negative("local_read_rtt_s", self.local_read_rtt_s)
        check_positive("max_staleness_s", self.max_staleness_s)
        if not 0 <= self.attached_node < self.n_sites:
            raise ControlPlaneError(
                f"attached_node {self.attached_node} outside cluster of "
                f"{self.n_sites}")
        check_positive("read_retry_interval_s", self.read_retry_interval_s)
        for name, least in (("max_read_retries", 0), ("catchup_max_fast", 0),
                            ("rpc_failure_threshold", 1)):
            if getattr(self, name) < least:
                raise ControlPlaneError(
                    f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0 <= self.catchup_cooldown_s < math.inf:
            raise ControlPlaneError(
                f"catchup_cooldown_s must be non-negative and finite, got "
                f"{self.catchup_cooldown_s}")
        if not 0 < self.rpc_reset_timeout_s < math.inf:
            raise ControlPlaneError(
                f"rpc_reset_timeout_s must be positive and finite, got "
                f"{self.rpc_reset_timeout_s}")

    @classmethod
    def for_lag(cls, replication_lag_s: float, *, n_sites: int = 5,
                read_mode: str = "quorum", **overrides) -> "ControlPlaneConfig":
        """Derive mutually consistent timers from the lag: heartbeats a
        few RTTs apart, election timeouts several heartbeats beyond
        that, leases strictly inside the election minimum."""
        check_non_negative("replication_lag_s", replication_lag_s)
        hb = max(2.5 * replication_lag_s, 0.2)
        defaults = dict(
            n_sites=n_sites,
            replication_lag_s=replication_lag_s,
            heartbeat_interval_s=hb,
            election_timeout_s=(6.0 * hb, 12.0 * hb),
            lease_duration_s=4.0 * hb,
            read_mode=read_mode,
            max_staleness_s=max(10.0 * replication_lag_s, 8.0 * hb),
            read_retry_interval_s=2.0 * hb,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class WriteTicket:
    """Tracks one submitted command to its ack (or supersession)."""

    command: Command
    submitted_at: float
    index: int | None = None
    term: int | None = None
    leader: int | None = None
    acked_at: float | None = None
    failed: bool = False

    @property
    def acked(self) -> bool:
        return self.acked_at is not None


@dataclass
class PartitionEvent:
    """What actually happened when a window opened (for reports)."""

    window: PartitionWindow
    started_at: float
    island: tuple[int, ...] = ()
    healed_at: float | None = None


class ControlPlane:
    """N replicated control sites plus the lagged message fabric."""

    def __init__(self, config: ControlPlaneConfig,
                 rngs: RngRegistry | None = None):
        self.config = config
        rngs = rngs or RngRegistry(0)
        self.catchup_budget = RetryBudget(
            max_fast_retries=config.catchup_max_fast,
            cooldown_s=config.catchup_cooldown_s)
        self.nodes = [
            RaftNode(
                i, config.n_sites,
                election_rng=rngs.stream(f"ctl:election:{i}"),
                heartbeat_interval_s=config.heartbeat_interval_s,
                election_timeout_s=config.election_timeout_s,
                snapshot_threshold=config.snapshot_threshold,
                catchup_budget=self.catchup_budget,
            )
            for i in range(config.n_sites)
        ]
        # each node's next timer, refreshed whenever a handler ran on it
        self._deadlines = [node.next_deadline() for node in self.nodes]
        self._time = 0.0
        self._started = False
        # (deliver_at, seq, src, dst, msg); a client request is its
        # WriteTicket, sent from src=None
        self._queue: list[tuple[float, int, int | None, int, object]] = []
        self._seq = 0
        self._islands: list[frozenset[int]] | None = None
        self._outbox: list[WriteTicket] = []
        self._pending: list[WriteTicket] = []
        # no ticket can resolve before some node commits its index
        self._max_commit = 0
        self._min_pending = math.inf
        self.partition_events: list[PartitionEvent] = []
        # counters
        self.messages_sent = 0
        self.messages_dropped = 0
        self.writes_submitted = 0
        self.writes_acked = 0
        self.writes_failed = 0
        self.commit_latencies: list[float] = []
        # steady-state start: a long-running federation already has a
        # leader; elections only matter when it fails. Installed lazily
        # on the first advance so bootstrap entries (term 0) land below
        # the initial leader's term-1 barrier entry.
        self._warm_leader: int | None = None
        if config.warm_start:
            self._warm_leader = int(
                rngs.stream("ctl:boot").integers(config.n_sites))

    def _ensure_warm(self) -> None:
        if self._warm_leader is None:
            return
        leader_id, self._warm_leader = self._warm_leader, None
        leader = self.nodes[leader_id]
        leader.term = 1
        leader.voted_for = leader_id
        for node in self.nodes:
            if node.id != leader_id:
                node.term = 1
                node.voted_for = leader_id
                node.leader_hint = leader_id
        self._send_all(leader_id, leader._become_leader(0.0), 0.0)
        self._deadlines[leader_id] = leader.next_deadline()
        # the pre-run heartbeat round is assumed acked at t=0, so the
        # steady-state lease is live from the start
        leader.ack_time = {p: 0.0 for p in leader.peers}

    # -- time ----------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._time

    def advance(self, now: float) -> None:
        """Drain messages and timers up to ``now`` in deterministic
        ``(time, kind, seq-or-node)`` order. No-op for ``now`` at or
        below the internal clock; a non-finite ``now`` raises."""
        if not math.isfinite(now):
            raise ControlPlaneError(f"cannot advance the control plane to {now}")
        if now < self._time:
            return
        self._ensure_warm()
        if now > 0.0:
            self._started = True
        while True:
            t_msg = self._queue[0][0] if self._queue else None
            t_timer, timer_node = self._next_timer()
            # messages win ties so a heartbeat arriving exactly at an
            # election deadline suppresses the election
            if t_msg is not None and t_msg <= t_timer:
                if t_msg > now:
                    break
                t, _seq, src, dst, msg = heapq.heappop(self._queue)
                self._time = max(self._time, t)
                self._deliver(src, dst, msg, t)
            else:
                if t_timer > now:
                    break
                node = self.nodes[timer_node]
                if node.role is Role.LEADER and \
                        self._replay_idle_rounds(node, now):
                    continue
                self._time = max(self._time, t_timer)
                self._send_all(timer_node, node.on_timer(t_timer), t_timer)
                self._deadlines[timer_node] = node.next_deadline()
                self._settle(t_timer, node)
        self._time = max(self._time, now)
        self._drain_outbox(self._time)

    def _next_timer(self) -> tuple[float, int]:
        """Earliest node deadline; the lowest node id wins ties."""
        t = min(self._deadlines)
        return t, self._deadlines.index(t)

    def _replay_idle_rounds(self, leader: RaftNode, now: float) -> bool:
        """Replay, in one step, the heartbeat rounds of ``leader`` that
        complete by ``now`` and before anything else reaches its island
        (the leader plus its reachable peers), when that island is
        quiescent; the state, counters and RNG draws end exactly where
        the message-by-message loop leaves them. Returns False, touching
        nothing, when no round can be replayed."""
        lag = self.config.replication_lag_s
        hb = leader.heartbeat_interval_s
        t = leader.heartbeat_due
        followers = [p for p in leader.peers if self.reachable(leader.id, p)]
        island = {leader.id, *followers}
        last = leader.log.last_index
        # an isolated leader's rounds are all dropped, so only a leader
        # with followers needs its whole log committed and matched
        if followers and (leader.commit_index != last
                          or leader.log.last_term != leader.term):
            return False
        for p in followers:
            f = self.nodes[p]
            if not (f.role is Role.FOLLOWER and f.term == leader.term
                    and f.log.last_index == last
                    and f.log.last_term == leader.term
                    and f.commit_index == last
                    and leader.match_index.get(p) == last
                    and leader.next_index.get(p) == last + 1
                    # messages must keep winning ties against timeouts
                    and f.election_deadline > t + lag
                    and not f.compaction_due()):
                return False
        if leader.compaction_due():
            return False
        # the replay ends before the first message queued for the
        # island lands, or the first client request, which may be
        # forwarded into it along leader hints
        first = math.inf
        for at, _seq, src, dst, _msg in self._queue:
            if at < first and (dst in island or src is None):
                first = at
        rounds = 0
        while True:
            done = (t + lag) + lag if followers else t
            if done > now or done >= first or done > t + hb:
                break
            rounds += 1
            t_last, t = t, t + hb
        if not rounds:
            return False
        for p in followers:
            self.nodes[p].absorb_heartbeats(leader.id, t_last + lag, rounds)
            self._deadlines[p] = self.nodes[p].election_deadline
            leader.ack_time[p] = max(leader.ack_time[p], t_last)
        leader.heartbeat_due = self._deadlines[leader.id] = t
        peers, reached = len(leader.peers), len(followers)
        self.messages_sent += rounds * (peers + reached)
        self.messages_dropped += rounds * (peers - reached)
        self._seq += rounds * 2 * reached
        return True

    # -- fabric --------------------------------------------------------------------
    def reachable(self, a: int, b: int) -> bool:
        if a == b:
            return True
        if self._islands is None:
            return True
        for island in self._islands:
            if a in island:
                return b in island
        return False

    def _post(self, src: int | None, dst: int, msg, at: float) -> None:
        """Queue ``msg`` from ``src`` (``None`` for a client request)
        for delivery to ``dst`` one replication lag after ``at``."""
        self._seq += 1
        heapq.heappush(self._queue, (at + self.config.replication_lag_s,
                                     self._seq, src, dst, msg))

    def _send_all(self, src: int, outgoing, now: float) -> None:
        split = self._islands is not None
        for dst, msg in outgoing:
            self.messages_sent += 1
            if split and not self.reachable(src, dst):
                self.messages_dropped += 1
                continue
            self._post(src, dst, msg, now)

    def _deliver(self, src: int | None, dst: int, msg, t: float) -> None:
        if src is None:
            self._deliver_client(dst, msg, t)
            return
        # partition applies at delivery too: packets in flight when the
        # split lands are lost with it
        if self._islands is not None and not self.reachable(src, dst):
            self.messages_dropped += 1
            return
        node = self.nodes[dst]
        self._send_all(dst, node.on_message(msg, t), t)
        self._deadlines[dst] = node.next_deadline()
        self._settle(t, node)

    def _settle(self, t: float, node: RaftNode) -> None:
        """Post-event bookkeeping after a handler ran on ``node``:
        resolve pending write tickets once some node has committed the
        lowest pending index (commit indices never decrease, so the
        touched node alone can raise the cluster's highest)."""
        if node.commit_index > self._max_commit:
            self._max_commit = node.commit_index
        if self._max_commit < self._min_pending:
            return
        still = []
        for ticket in self._pending:
            if self._resolve_ticket(ticket, t):
                continue
            still.append(ticket)
        self._pending = still
        self._min_pending = min((tk.index for tk in still), default=math.inf)

    def _resolve_ticket(self, ticket: WriteTicket, t: float) -> bool:
        idx, term = ticket.index, ticket.term
        for node in self.nodes:
            if node.commit_index >= idx:
                # compacted indices answer from the snapshot's term runs:
                # a minority leader's entry at an index the majority
                # committed under another term must fail, not ack
                committed_term = node.log.known_term(idx)
                if committed_term == term:
                    ticket.acked_at = t
                    self.writes_acked += 1
                    self.commit_latencies.append(t - ticket.submitted_at)
                    return True
                if committed_term is not None:
                    ticket.failed = True
                    self.writes_failed += 1
                    return True
        return False

    # -- clients --------------------------------------------------------------------
    def submit(self, command: Command, now: float, *,
               target: int | None = None) -> WriteTicket:
        """Submit a mutation; returns a ticket that resolves when a
        quorum commits (acks never come from minority leaders — they
        cannot advance their commit index)."""
        self.advance(now)
        self.writes_submitted += 1
        ticket = WriteTicket(command, now)
        leader = target if target is not None else self.leader_id()
        if leader is None:
            self._outbox.append(ticket)
        else:
            self._post(None, leader, ticket, now)
        return ticket

    def _deliver_client(self, dst: int, ticket: WriteTicket, t: float) -> None:
        node = self.nodes[dst]
        if node.role is Role.LEADER:
            entry = node.propose(ticket.command, t)
            ticket.index, ticket.term, ticket.leader = (
                entry.index, entry.term, dst)
            self._pending.append(ticket)
            self._min_pending = min(self._min_pending, entry.index)
            self._send_all(dst, append_all(node, t), t)
            self._settle(t, node)
            return
        hint = node.leader_hint
        if hint is not None and hint != dst:
            self._post(None, hint, ticket, t)
        else:
            self._outbox.append(ticket)

    def _drain_outbox(self, now: float) -> None:
        if not self._outbox:
            return
        leader = self.leader_id()
        if leader is None:
            return
        box, self._outbox = self._outbox, []
        for ticket in box:
            self._post(None, leader, ticket, now)

    # -- cluster views ---------------------------------------------------------------
    def leader_id(self) -> int | None:
        """The highest-term leader (clients discover via any node); a
        deposed minority leader loses this title the moment a majority
        elects a successor at a higher term."""
        self._ensure_warm()
        best = None
        for node in self.nodes:
            if node.role is Role.LEADER:
                if best is None or node.term > self.nodes[best].term:
                    best = node.id
        return best

    def node_state(self, node_id: int):
        return self.nodes[node_id].state

    def quorum_connected(self, node_id: int) -> bool:
        if self._islands is None:
            return True
        quorum = self.config.n_sites // 2 + 1
        for island in self._islands:
            if node_id in island:
                return len(island) >= quorum
        return False

    def committed_state(self):
        """The most-applied node's state = the longest committed prefix
        (unique by log matching); the reference truth for staleness
        accounting."""
        best = self.nodes[0]
        for node in self.nodes[1:]:
            if node.state.applied_index > best.state.applied_index:
                best = node
        return best.state

    def freshest_node(self) -> int:
        best = self.nodes[0]
        for node in self.nodes[1:]:
            if node.last_leader_contact > best.last_leader_contact:
                best = node
        return best.id

    @property
    def elections_started(self) -> int:
        return sum(n.elections_started for n in self.nodes)

    @property
    def leader_changes(self) -> int:
        return sum(len(n.terms_led) for n in self.nodes)

    def fingerprints(self) -> list[tuple]:
        return [n.state.fingerprint() for n in self.nodes]

    def converged(self) -> bool:
        """All nodes applied the same prefix up to the max commit."""
        target = max(n.commit_index for n in self.nodes)
        return all(n.state.applied_index == target for n in self.nodes) and \
            len(set(self.fingerprints())) == 1

    # -- bootstrap -------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True once simulated time has advanced past zero — from then
        on logs may diverge (elections, partitions) and only replicated
        writes keep them consistent."""
        return self._started

    def bootstrap(self, commands: list[Command]) -> None:
        """Install ``commands`` as a pre-replicated committed prefix on
        every node — initial dataset registrations and seed replicas
        that exist before the run starts (no replication cost: the
        federation converged on them long ago). Illegal once the plane
        has started: direct multi-log appends would corrupt consensus."""
        if self._started:
            raise ControlPlaneError(
                "bootstrap after the control plane started; submit a "
                "replicated write instead"
            )
        for node in self.nodes:
            for command in commands:
                entry = node.log.append(0, command)
                node.commit_index = entry.index
            node._apply_committed()
            self._max_commit = max(self._max_commit, node.commit_index)

    # -- partitions ------------------------------------------------------------------
    def begin_partition(self, window: PartitionWindow, now: float) -> PartitionEvent:
        self.advance(now)
        if window.style == "leader":
            leader = self.leader_id()
            if leader is None:
                # no leader to isolate: pick the max-term node (it is
                # the likeliest next winner), deterministically
                leader = max(self.nodes, key=lambda n: (n.term, -n.id)).id
            island = frozenset([leader])
        else:
            island = frozenset(window.island)
        rest = frozenset(range(self.config.n_sites)) - island
        self._islands = [island, rest] if rest else [island]
        event = PartitionEvent(window, now, tuple(sorted(island)))
        self.partition_events.append(event)
        return event

    def end_partition(self, now: float) -> None:
        self.advance(now)
        self._islands = None
        for event in reversed(self.partition_events):
            if event.healed_at is None:
                event.healed_at = now
                break

    @property
    def partitioned(self) -> bool:
        return self._islands is not None
