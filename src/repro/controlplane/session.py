"""Client sessions against the control plane: the three read modes.

A session belongs to one metadata client (the scheduler run). Each
*placement read* resolves a consistent state image to plan against and
returns the simulated latency that resolution cost:

- ``stale``  — read the attached control site's applied state. One
  local RTT. If the attached site hasn't heard from a leader within
  ``max_staleness_s``, fail over to the freshest reachable site (the
  bounded-lag promise) and count the violation if even that is stale.
- ``lease``  — read the leader's local state while its quorum lease
  holds: one client→leader round trip (2× replication lag), no quorum
  round. Falls back to the retry path when no leased leader exists.
- ``quorum`` — leader confirms leadership with a quorum round before
  answering: 4× replication lag (client→leader→quorum→leader→client),
  but the answer is the leader's image — linearizable, and immune to
  stale-view misplacement by construction.

The leader is the serialization point for every catalog mutation: a
site registers a replica with the live leader the moment the bytes
land, so the leader's image *is* the physical ground truth (commit
acks to the writer still pay the quorum round — that cost shows up in
write tickets, not reads). Follower images lag behind by replication +
heartbeat delay, which is exactly the staleness the ``stale`` mode
trades latency for. Reads that resolve at a leased or
quorum-confirmed leader therefore pin ``truth``; everything else pins
a follower's applied state.

Unavailability (no reachable leader with quorum, e.g. mid-failover) is
handled with deterministic retry probes paced by
``read_retry_interval_s``; a circuit breaker on the leader RPC path
short-circuits repeat probing during long outages, and after
``max_read_retries`` the read *degrades* to stale (counted) rather than
blocking placement forever — the continuum keeps scheduling on old maps
when the control plane is sick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.controlplane.cluster import ControlPlane
from repro.controlplane.state import ControlState
from repro.resilience.breaker import (
    BreakerConfig, BreakerRegistry, BreakerState,
)


@dataclass
class ControlPlaneStats:
    """What one run's metadata access actually cost."""

    reads: int = 0
    read_latencies: list = field(default_factory=list)
    quorum_reads: int = 0
    lease_reads: int = 0
    stale_reads: int = 0
    degraded_reads: int = 0       # quorum/lease demands served stale
    failover_reads: int = 0       # stale reads re-pointed to a fresher node
    staleness_violations: int = 0  # even the freshest node exceeded the bound
    unavailable_s: float = 0.0    # time spent waiting out leaderless windows
    unavailable_events: int = 0
    misplacements: int = 0        # view disagreed with physical truth
    wasted_bytes: float = 0.0     # bytes pulled from a strictly worse source
    phantom_sources: int = 0      # view offered a replica that wasn't there
    fallback_reads: int = 0       # view empty -> authoritative answer used

    def read_latency_p99(self) -> float:
        if not self.read_latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.read_latencies), 99))

    def read_latency_mean(self) -> float:
        if not self.read_latencies:
            return 0.0
        return float(np.mean(np.asarray(self.read_latencies)))


class ControlPlaneSession:
    """One client's read path; pins the state image reads resolve to."""

    def __init__(self, plane: ControlPlane,
                 stats: ControlPlaneStats | None = None):
        self.plane = plane
        self.config = plane.config
        self.stats = stats or ControlPlaneStats()
        self.breakers = BreakerRegistry(BreakerConfig(
            failure_threshold=self.config.rpc_failure_threshold,
            reset_timeout_s=self.config.rpc_reset_timeout_s,
        ))
        self._pinned: ControlState = plane.node_state(self.config.attached_node)
        self._pinned_truth = False

    # -- resolved views -----------------------------------------------------------
    def current_state(self) -> ControlState:
        """The image pinned by the most recent placement read."""
        return self._pinned

    @property
    def pinned_truth(self) -> bool:
        """True when the last read resolved at a leased/quorum-confirmed
        leader, whose image coincides with the physical catalog."""
        return self._pinned_truth

    # -- the read itself ----------------------------------------------------------
    def placement_read(self, now: float) -> float:
        """Resolve a state image for one placement round; returns the
        simulated seconds the resolution cost (the scheduler pays this
        as a delay before dispatching)."""
        self.plane.advance(now)
        self.stats.reads += 1
        mode = self.config.read_mode
        if mode == "stale":
            latency = self._read_stale(now)
        elif mode == "lease":
            latency = self._read_lease(now)
        else:
            latency = self._read_quorum(now)
        self.stats.read_latencies.append(latency)
        return latency

    # -- stale --------------------------------------------------------------------
    def _read_stale(self, now: float) -> float:
        cfg = self.config
        node = self.plane.nodes[cfg.attached_node]
        if now - node.last_leader_contact > cfg.max_staleness_s:
            fresh = self.plane.freshest_node()
            if fresh != node.id:
                self.stats.failover_reads += 1
                node = self.plane.nodes[fresh]
            if now - node.last_leader_contact > cfg.max_staleness_s:
                self.stats.staleness_violations += 1
        self._pinned = node.state
        self._pinned_truth = False
        self.stats.stale_reads += 1
        return cfg.local_read_rtt_s

    # -- lease --------------------------------------------------------------------
    def _read_lease(self, now: float) -> float:
        leader = self._lease_ready(now)
        if leader is not None:
            return self._finish_lease(leader, 0.0)
        return self._retry_then_degrade(
            now, self._lease_ready, self._finish_lease)

    def _lease_ready(self, t: float) -> int | None:
        leader = self.plane.leader_id()
        if leader is not None and self.plane.nodes[leader].lease_valid(
                t, self.config.lease_duration_s):
            return leader
        return None

    def _finish_lease(self, leader: int, waited: float) -> float:
        self._pinned = self.plane.nodes[leader].state
        self._pinned_truth = True
        self.stats.lease_reads += 1
        return waited + 2.0 * self.config.replication_lag_s

    # -- quorum -------------------------------------------------------------------
    def _read_quorum(self, now: float) -> float:
        leader = self._quorum_ready(now)
        if leader is not None:
            self.breakers.get("ctl:leader-rpc").record_success(now)
            return self._finish_quorum(leader, 0.0)
        return self._retry_then_degrade(
            now, self._quorum_ready, self._finish_quorum)

    def _quorum_ready(self, t: float) -> int | None:
        leader = self.plane.leader_id()
        if leader is not None and self.plane.quorum_connected(leader):
            return leader
        return None

    def _finish_quorum(self, leader: int, waited: float) -> float:
        self._pinned = self.plane.nodes[leader].state
        self._pinned_truth = True
        self.stats.quorum_reads += 1
        return waited + 4.0 * self.config.replication_lag_s

    # -- shared retry / degrade path ------------------------------------------------
    def _retry_then_degrade(self, now: float, ready, finish) -> float:
        """Deterministic probe loop: advance simulated time in
        ``read_retry_interval_s`` steps until the mode's precondition
        holds, the breaker trips, or the retry cap is hit — then serve
        the attached node's state (degraded)."""
        cfg = self.config
        breaker = self.breakers.get("ctl:leader-rpc")
        self.stats.unavailable_events += 1
        waited = 0.0
        if not breaker.blocked(now):
            if breaker.state(now) is BreakerState.HALF_OPEN:
                breaker.note_probe(now)
            for _ in range(cfg.max_read_retries):
                waited += cfg.read_retry_interval_s
                t = now + waited
                self.plane.advance(t)
                leader = ready(t)
                if leader is not None:
                    breaker.record_success(t)
                    self.stats.unavailable_s += waited
                    return finish(leader, waited)
            breaker.record_failure(now + waited)
        self.stats.unavailable_s += waited
        self.stats.degraded_reads += 1
        self.stats.stale_reads += 1
        self._pinned = self.plane.nodes[cfg.attached_node].state
        self._pinned_truth = False
        return waited + cfg.local_read_rtt_s
