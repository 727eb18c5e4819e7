"""Per-run bundle: plane + session + mirrored catalog + view.

The scheduler owns one :class:`ControlRuntime` when a run opts into the
replicated control plane (``control=ControlPlaneConfig(...)``). It
wires the catalog mirror, the client session, and the planner-facing
view together so the scheduler touches one object instead of four.
"""

from __future__ import annotations

from repro.continuum.topology import Topology
from repro.controlplane.cluster import ControlPlane, ControlPlaneConfig
from repro.controlplane.session import ControlPlaneSession, ControlPlaneStats
from repro.controlplane.view import MirroredCatalog, ReplicatedCatalogView
from repro.faults.partitions import PartitionSchedule
from repro.utils.rng import RngRegistry


class ControlRuntime:
    """Everything one scheduled run needs from the control plane."""

    def __init__(self, config: ControlPlaneConfig, topology: Topology,
                 *, rngs: RngRegistry | None = None):
        self.config = config
        self.plane = ControlPlane(config, rngs=rngs)
        self.stats = ControlPlaneStats()
        self.session = ControlPlaneSession(self.plane, stats=self.stats)
        self.catalog = MirroredCatalog(self.plane)
        self.view = ReplicatedCatalogView(self.session, self.catalog, topology)

    def bind_clock(self, clock) -> None:
        self.catalog.bind_clock(clock)

    def emit_metrics(self, registry) -> None:
        """Re-emit the run's control-plane activity through a metrics
        registry (no-op when disabled): read-path counters labeled by
        consistency mode, election/commit activity, and the commit /
        read latency distributions as histograms."""
        if not registry.enabled:
            return
        s, plane = self.stats, self.plane
        for mode, reads in (("quorum", s.quorum_reads),
                            ("lease", s.lease_reads),
                            ("stale", s.stale_reads)):
            registry.emit([("controlplane_reads_total",
                            "Metadata reads by consistency mode actually "
                            "served", reads)], {"mode": mode})
        registry.emit((
            ("controlplane_degraded_reads_total",
             "Quorum/lease demands served stale during partitions",
             s.degraded_reads),
            ("controlplane_failover_reads_total",
             "Stale reads re-pointed to a fresher node", s.failover_reads),
            ("controlplane_staleness_violations_total",
             "Reads where even the freshest node exceeded the bound",
             s.staleness_violations),
            ("controlplane_unavailable_events_total",
             "Leaderless windows a read had to wait out",
             s.unavailable_events),
            ("controlplane_unavailable_seconds_total",
             "Simulated seconds spent waiting out leaderless windows",
             s.unavailable_s),
            ("controlplane_misplacements_total",
             "Placements where the view disagreed with physical truth",
             s.misplacements),
            ("controlplane_wasted_bytes_total",
             "Bytes pulled from a strictly worse source", s.wasted_bytes),
            ("controlplane_phantom_sources_total",
             "View offered a replica that wasn't there", s.phantom_sources),
            ("controlplane_fallback_reads_total",
             "View empty, authoritative answer used", s.fallback_reads),
            ("controlplane_elections_total",
             "Leader elections started across the cluster",
             plane.elections_started),
            ("controlplane_leader_changes_total",
             "Distinct terms led across the cluster", plane.leader_changes),
            ("controlplane_commits_total", "Replicated log commits",
             len(plane.commit_latencies)),
        ))
        for name, help_, latencies in (
            ("controlplane_read_latency_seconds",
             "Metadata read latency distribution", s.read_latencies),
            ("controlplane_commit_latency_seconds",
             "Replicated log commit latency distribution",
             plane.commit_latencies),
        ):
            hist = registry.histogram(name, help_, start=1e-4, factor=2.0,
                                      count=30)
            for lat in latencies:
                hist.observe(lat)

    def arm_partitions(self, sim, schedule: PartitionSchedule) -> None:
        """Schedule every window's split and heal on the simulator; the
        plane resolves leader-style islands at fire time."""
        schedule.validate_against(self.config.n_sites)
        for window in schedule.windows:
            def begin(w=window):
                self.plane.begin_partition(w, sim.now)

            def end():
                self.plane.end_partition(sim.now)

            sim.schedule_at(window.start_s, begin)
            sim.schedule_at(window.end_s, end)
