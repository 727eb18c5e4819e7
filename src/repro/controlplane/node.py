"""One control site's consensus participant (Raft-style).

Nodes are passive state machines: the :class:`ControlPlane` cluster
owns the clock, the message fabric, and the partition model, and calls
``on_timer`` / ``on_message`` as simulated time advances. Every handler
returns the messages it wants sent — ``(dst, msg)`` pairs — so all
delivery (lag, drops across partitions) is decided in one place and the
node itself stays deterministic and side-effect free.

Election timeouts are drawn per-node from named RNG streams
(``ctl:election:<id>``), so who wins each election is a pure function of
the run seed — the property the determinism tests pin. A node draws
them :data:`TIMEOUT_BLOCK` at a time and hands them out in order: a
block of ``k`` draws is bitwise equal to ``k`` scalar draws.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from repro.controlplane.log import NOOP, Command, LogEntry, ReplicatedLog, Snapshot
from repro.controlplane.state import ControlState
from repro.resilience.retry import RetryBudget

#: Election timeouts a node draws from its stream in one call.
TIMEOUT_BLOCK = 64


class Role(Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


# -- messages ---------------------------------------------------------------------
class RequestVote(NamedTuple):
    term: int
    candidate: int
    last_log_index: int
    last_log_term: int


class VoteReply(NamedTuple):
    term: int
    voter: int
    granted: bool


class AppendEntries(NamedTuple):
    term: int
    leader: int
    prev_index: int
    prev_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int
    sent_at: float  # leader clock at send; echoed back for lease math


class AppendReply(NamedTuple):
    term: int
    follower: int
    success: bool
    match_index: int   # on success: last replicated index; on failure: hint
    sent_at: float     # echo of AppendEntries.sent_at


class InstallSnapshot(NamedTuple):
    term: int
    leader: int
    snapshot: Snapshot
    sent_at: float


class SnapshotReply(NamedTuple):
    term: int
    follower: int
    match_index: int
    sent_at: float


def append_all(leader, now: float) -> list[tuple[int, object]]:
    """``leader``'s AppendEntries (or InstallSnapshot) for every peer.
    Peers at the same next index get the same immutable message, built
    once, so a broadcast copies each log suffix once."""
    built = {}
    out = []
    for peer in leader.peers:
        nxt = leader.next_index.get(peer)
        msg = built.get(nxt)
        if msg is None:
            msg = built[nxt] = leader._append_for(peer, now)
        out.append((peer, msg))
    return out


class RaftNode:
    """Consensus state for one control site (id ``0..n-1``)."""

    def __init__(self, node_id: int, n_nodes: int, *, election_rng,
                 heartbeat_interval_s: float,
                 election_timeout_s: tuple[float, float],
                 snapshot_threshold: int,
                 catchup_budget: RetryBudget | None = None):
        self.id = node_id
        self.n = n_nodes
        self.quorum = n_nodes // 2 + 1
        self._rng = election_rng
        self.heartbeat_interval_s = heartbeat_interval_s
        self.election_timeout_s = election_timeout_s
        self.snapshot_threshold = snapshot_threshold
        self.peers = tuple(i for i in range(n_nodes) if i != node_id)
        # out-of-band catch-up resends (beyond heartbeats) draw on a
        # retry budget so a flapping follower cannot turn the leader
        # into a resend firehose
        self.catchup_budget = catchup_budget

        self.term = 0
        self.voted_for: int | None = None
        self.role = Role.FOLLOWER
        self.leader_hint: int | None = None
        self.log = ReplicatedLog()
        self.commit_index = 0
        self.state = ControlState()

        self._timeouts: list[float] = []  # drawn, unused; the next is last
        self.election_deadline = self._draw_timeout(0.0)
        self.last_leader_contact = 0.0
        self.elections_started = 0
        self.terms_led: list[int] = []

        # leader-only bookkeeping
        self.next_index: dict[int, int] = {}
        self.match_index: dict[int, int] = {}
        self.ack_time: dict[int, float] = {}  # newest acked sent_at per peer
        self.heartbeat_due = 0.0
        self._votes: set[int] = set()

    # -- timeouts -----------------------------------------------------------------
    def _draw_timeout(self, now: float) -> float:
        if not self._timeouts:
            lo, hi = self.election_timeout_s
            self._timeouts = self._rng.uniform(
                lo, hi, size=TIMEOUT_BLOCK).tolist()[::-1]
        return now + self._timeouts.pop()

    def next_deadline(self) -> float:
        """When this node next wants a timer callback."""
        if self.role is Role.LEADER:
            return self.heartbeat_due
        return self.election_deadline

    # -- role transitions ---------------------------------------------------------
    def _become_follower(self, term: int) -> None:
        if term > self.term:
            self.term = term
            self.voted_for = None
        self.role = Role.FOLLOWER
        self._votes = set()

    def _become_leader(self, now: float) -> list[tuple[int, object]]:
        self.role = Role.LEADER
        self.leader_hint = self.id
        self.terms_led.append(self.term)
        self.next_index = {p: self.log.last_index + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self.ack_time = {p: float("-inf") for p in self.peers}
        self.heartbeat_due = now + self.heartbeat_interval_s
        # barrier entry: lets this leader commit predecessors' entries
        self.log.append(self.term, NOOP)
        return append_all(self, now)

    # -- timer events -------------------------------------------------------------
    def on_timer(self, now: float) -> list[tuple[int, object]]:
        if self.role is Role.LEADER:
            if now < self.heartbeat_due:
                return []
            self.heartbeat_due = now + self.heartbeat_interval_s
            self.maybe_compact()
            return append_all(self, now)
        if now < self.election_deadline:
            return []
        # start (or restart) an election
        self.term += 1
        self.role = Role.CANDIDATE
        self.voted_for = self.id
        self._votes = {self.id}
        self.leader_hint = None
        self.elections_started += 1
        self.election_deadline = self._draw_timeout(now)
        if self.quorum == 1:
            return self._become_leader(now)
        msg = RequestVote(self.term, self.id, self.log.last_index,
                          self.log.last_term)
        return [(p, msg) for p in self.peers]

    # -- client entry point (leader only) ------------------------------------------
    def propose(self, command: Command, now: float) -> LogEntry:
        assert self.role is Role.LEADER
        entry = self.log.append(self.term, command)
        if self.quorum == 1:
            self._advance_commit()
        return entry

    # -- message handling ---------------------------------------------------------
    def on_message(self, msg, now: float) -> list[tuple[int, object]]:
        if msg.term > self.term:
            self._become_follower(msg.term)
        return self._HANDLERS[type(msg)](self, msg, now)

    def _on_request_vote(self, msg: RequestVote, now: float):
        granted = False
        if msg.term == self.term and self.voted_for in (None, msg.candidate):
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                self.log.last_term, self.log.last_index)
            if up_to_date:
                granted = True
                self.voted_for = msg.candidate
                self.election_deadline = self._draw_timeout(now)
        return [(msg.candidate, VoteReply(self.term, self.id, granted))]

    def _on_vote_reply(self, msg: VoteReply, now: float):
        if self.role is not Role.CANDIDATE or msg.term != self.term:
            return []
        if msg.granted:
            self._votes.add(msg.voter)
            if len(self._votes) >= self.quorum:
                return self._become_leader(now)
        return []

    def _on_append(self, msg: AppendEntries, now: float):
        if msg.term < self.term:
            return [(msg.leader,
                     AppendReply(self.term, self.id, False,
                                 self.log.last_index, msg.sent_at))]
        # valid leader for our term
        self._become_follower(msg.term)
        self.leader_hint = msg.leader
        self.last_leader_contact = now
        self.election_deadline = self._draw_timeout(now)

        prev_term = self.log.term_at(msg.prev_index)
        if prev_term is None or prev_term != msg.prev_term:
            # missing or conflicting prev entry: hint how far back to go
            hint = min(self.log.last_index, max(msg.prev_index - 1, 0))
            return [(msg.leader,
                     AppendReply(self.term, self.id, False, hint,
                                 msg.sent_at))]
        # log matching: logs that agree on the term at an index agree
        # on every entry up to it. So when the term agrees at the last
        # index both logs hold, the carried entries up to it are here
        # already and only those past it are appended; on a mismatch
        # every carried entry is checked
        entries, match = msg.entries, msg.prev_index
        held = min(match + len(entries), self.log.last_index)
        if held == match or \
                self.log.term_at(held) == entries[held - match - 1].term:
            for entry in entries[held - match:]:
                self.log.append(entry.term, entry.command)
            match += len(entries)
        else:
            for entry in entries:
                if entry.index <= self.log.base_index:
                    match = max(match, entry.index)
                    continue  # already compacted == already committed here
                existing = self.log.term_at(entry.index)
                if existing is not None and existing != entry.term:
                    self.log.truncate_from(entry.index)
                    existing = None
                if existing is None:
                    self.log.append(entry.term, entry.command)
                match = entry.index
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.log.last_index)
            self._apply_committed()
        self.maybe_compact()
        return [(msg.leader,
                 AppendReply(self.term, self.id, True, match, msg.sent_at))]

    def _on_append_reply(self, msg: AppendReply, now: float):
        if self.role is not Role.LEADER or msg.term != self.term:
            return []
        peer = msg.follower
        self.ack_time[peer] = max(self.ack_time.get(peer, float("-inf")),
                                  msg.sent_at)
        if msg.success:
            if msg.match_index > self.match_index.get(peer, 0):
                self.match_index[peer] = msg.match_index
                # the leader's own last index ranks first, so the
                # quorum-th replicated index moves only with a match
                self._advance_commit()
            self.next_index[peer] = max(self.next_index.get(peer, 1),
                                        msg.match_index + 1)
            if (self.next_index[peer] <= self.log.last_index
                    and self._may_resend()):
                return [(peer, self._append_for(peer, now))]
            return []
        # log mismatch: back off next_index toward the follower's hint
        self.next_index[peer] = max(
            1, min(self.next_index.get(peer, 1) - 1, msg.match_index + 1))
        if self._may_resend():
            return [(peer, self._append_for(peer, now))]
        return []

    def _on_install_snapshot(self, msg: InstallSnapshot, now: float):
        if msg.term < self.term:
            return [(msg.leader,
                     SnapshotReply(self.term, self.id, self.log.last_index,
                                   msg.sent_at))]
        self._become_follower(msg.term)
        self.leader_hint = msg.leader
        self.last_leader_contact = now
        self.election_deadline = self._draw_timeout(now)
        snap = msg.snapshot
        if snap.last_index > self.log.base_index:
            if snap.last_index <= self.log.last_index and \
                    self.log.term_at(snap.last_index) == snap.last_term:
                self.log.compact(snap)  # snapshot covers a prefix we hold
            else:
                self.log.install(snap)
            if snap.last_index > self.commit_index:
                self.commit_index = snap.last_index
            if snap.last_index > self.state.applied_index:
                self.state = ControlState.from_snapshot(snap.state)
        return [(msg.leader,
                 SnapshotReply(self.term, self.id, self.log.base_index,
                               msg.sent_at))]

    def _on_snapshot_reply(self, msg: SnapshotReply, now: float):
        if self.role is not Role.LEADER or msg.term != self.term:
            return []
        peer = msg.follower
        self.ack_time[peer] = max(self.ack_time.get(peer, float("-inf")),
                                  msg.sent_at)
        if msg.match_index > self.match_index.get(peer, 0):
            self.match_index[peer] = msg.match_index
        self.next_index[peer] = max(self.next_index.get(peer, 1),
                                    msg.match_index + 1)
        if (self.next_index[peer] <= self.log.last_index
                and self._may_resend()):
            return [(peer, self._append_for(peer, now))]
        return []

    _HANDLERS = {
        RequestVote: _on_request_vote,
        VoteReply: _on_vote_reply,
        AppendEntries: _on_append,
        AppendReply: _on_append_reply,
        InstallSnapshot: _on_install_snapshot,
        SnapshotReply: _on_snapshot_reply,
    }

    def absorb_heartbeats(self, leader: int, last_contact: float,
                          rounds: int) -> None:
        """Take the state that ``rounds`` entry-less AppendEntries from
        ``leader`` leave on an up-to-date follower, the last delivered
        at ``last_contact``. The election timeouts those deliveries
        redraw are the next ``rounds`` draws, those still buffered first
        and the rest from one call; only the last one survives."""
        self.leader_hint = leader
        self.last_leader_contact = last_contact
        drawn = self._timeouts
        if rounds <= len(drawn):
            timeout = drawn[-rounds]
            del drawn[-rounds:]
        else:
            lo, hi = self.election_timeout_s
            timeout = float(self._rng.uniform(
                lo, hi, size=rounds - len(drawn))[-1])
            drawn.clear()
        self.election_deadline = last_contact + timeout

    # -- leader internals ---------------------------------------------------------
    def _may_resend(self) -> bool:
        if self.catchup_budget is None:
            return True
        return self.catchup_budget.acquire()

    def _append_for(self, peer: int, now: float):
        """Build the AppendEntries (or InstallSnapshot) for ``peer``."""
        nxt = self.next_index.get(peer, self.log.last_index + 1)
        if nxt <= self.log.base_index:
            # next_index >= 1, so a compacted base exists here
            return InstallSnapshot(self.term, self.id, self.log.snapshot, now)
        prev_index = nxt - 1
        prev_term = self.log.term_at(prev_index)
        entries = self.log.entries_from(nxt)
        return AppendEntries(self.term, self.id, prev_index, prev_term,
                             entries, self.commit_index, now)

    def _advance_commit(self) -> None:
        """Commit the highest current-term index replicated on a
        quorum (Raft §5.4.2: never count older-term replicas). That is
        the quorum-th largest replicated index, the leader counting
        itself at its last index: log terms never decrease, so the
        current-term entries form a suffix and one term check decides."""
        last = self.log.last_index
        replicated = sorted(
            [last, *(min(self.match_index.get(p, 0), last) for p in self.peers)],
            reverse=True)
        idx = replicated[self.quorum - 1]
        if idx > self.commit_index and self.log.term_at(idx) == self.term:
            self.commit_index = idx
        self._apply_committed()

    def lease_valid(self, now: float, lease_duration_s: float) -> bool:
        """Leader lease: quorum-acked heartbeat rounds extend a lease of
        ``lease_duration_s`` past the (quorum-1)-th freshest ack time.
        Only within the lease may the leader serve local reads without a
        quorum round-trip."""
        if self.role is not Role.LEADER:
            return False
        acks = sorted((self.ack_time.get(p, float("-inf"))
                       for p in self.peers), reverse=True)
        need = self.quorum - 1  # leader vouches for itself
        if need == 0:
            return True
        anchor = acks[need - 1]
        return now < anchor + lease_duration_s

    # -- apply / compaction -------------------------------------------------------
    def _apply_committed(self) -> None:
        while self.state.applied_index < self.commit_index:
            idx = self.state.applied_index + 1
            entry = self.log.entry(idx)
            self.state.apply(entry.command, idx)

    def compaction_due(self) -> bool:
        """Whether the applied suffix has reached the snapshot threshold
        (:meth:`maybe_compact` would compact now)."""
        return (self.state.applied_index - self.log.base_index
                >= self.snapshot_threshold)

    def maybe_compact(self) -> None:
        """Snapshot + truncate once the applied suffix outgrows the
        threshold. Only applied (hence committed) entries compact, so a
        snapshot never contains uncommitted writes.

        The snapshot is lazy: it chains the discarded commands onto the
        previous snapshot, so compaction costs O(entries discarded).
        Once a chain holds more commands than its image has entries, the
        image is taken from the applied state instead, which keeps a
        node's retained chain within O(image) memory."""
        if not self.compaction_due():
            return
        applied, base = self.state.applied_index, self.log.base_index
        discarded = self.log.entries_from(base + 1)[:applied - base]
        snap = Snapshot.after(self.log.snapshot, discarded)
        if snap.chain_len > self.state.entries:
            snap = Snapshot(applied, snap.last_term, self.state.to_snapshot(),
                            snap.terms)
        self.log.compact(snap)
