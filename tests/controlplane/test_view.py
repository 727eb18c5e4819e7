"""The catalog views over the plane: mirroring, staleness
accounting (misplacements, wasted bytes, phantoms, fallbacks), and the
truth-serving behaviour of linearized reads."""

import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.controlplane import (
    ControlPlane,
    ControlPlaneConfig,
    ControlPlaneSession,
    MirroredCatalog,
    ReplicatedCatalogView,
)
from repro.datafabric import Dataset
from repro.utils.rng import RngRegistry

SIZE = 100.0


def topo3():
    """c pulls 100x faster from b than from a."""
    topo = Topology()
    topo.add_site(Site("a", Tier.CLOUD))
    topo.add_site(Site("b", Tier.EDGE))
    topo.add_site(Site("c", Tier.EDGE))
    topo.add_link("a", "c", Link(0.0, 10.0))
    topo.add_link("b", "c", Link(0.0, 1000.0))
    return topo


def make(read_mode, seed=0):
    config = ControlPlaneConfig.for_lag(1.0, n_sites=3, read_mode=read_mode)
    plane = ControlPlane(config, RngRegistry(seed))
    session = ControlPlaneSession(plane)
    catalog = MirroredCatalog(plane)
    clock = [0.0]
    catalog.bind_clock(lambda: clock[0])
    view = ReplicatedCatalogView(session, catalog, topo3())
    return plane, session, catalog, view, clock


class TestMirroredCatalog:
    def test_bootstrap_mutations_are_free(self):
        plane, _, catalog, _, _ = make("stale")
        catalog.register(Dataset("d", SIZE))
        catalog.bootstrap_replica("d", "a")
        assert plane.writes_submitted == 0
        assert all(n.state.has_replica("d", "a") for n in plane.nodes)

    def test_runtime_mutations_are_replicated_writes(self):
        plane, session, catalog, _, clock = make("stale")
        catalog.register(Dataset("d", SIZE))
        catalog.bootstrap_replica("d", "a")
        session.placement_read(0.5)       # starts the plane
        clock[0] = 1.0
        catalog.add_replica("d", "b", 1.0)
        assert plane.writes_submitted == 1
        # the authoritative catalog knows immediately (bytes landed)
        assert catalog.has_replica("d", "b")
        # followers only after commit + heartbeat propagation
        plane.advance(20.0)
        assert all(n.state.has_replica("d", "b") for n in plane.nodes)

    def test_endpoint_transitions_are_replicated_writes(self):
        plane, session, catalog, _, clock = make("stale")
        session.placement_read(0.5)
        clock[0] = 1.0
        catalog.endpoint_down("b")
        assert plane.writes_submitted == 1
        session.placement_read(1.5)
        # the bad news hasn't reached the pinned follower image yet
        assert session.current_state().to_snapshot()["endpoints"] == ()
        session.placement_read(20.0)
        assert all(n.state.to_snapshot()["endpoints"] == (("b", False),)
                   for n in plane.nodes)


class TestStaleAccounting:
    def _staged_closer_copy(self):
        plane, session, catalog, view, clock = make("stale")
        catalog.register(Dataset("d", SIZE))
        catalog.bootstrap_replica("d", "a")
        session.placement_read(0.5)
        clock[0] = 1.0
        catalog.add_replica("d", "b", 1.0)   # closer copy lands at b
        return plane, session, catalog, view

    def test_lagged_view_misplaces_and_wastes(self):
        _, session, _, view = self._staged_closer_copy()
        session.placement_read(1.5)          # inside the commit window
        src, delay = view.transfer_source("d", "c")
        assert src == "a"                    # stale choice, physically real
        assert delay == 0.0
        assert view.stats.misplacements == 1
        assert view.stats.wasted_bytes == SIZE
        assert view.stats.phantom_sources == 0

    def test_caught_up_view_stops_misplacing(self):
        _, session, _, view = self._staged_closer_copy()
        session.placement_read(20.0)         # past commit + heartbeat
        src, _ = view.transfer_source("d", "c")
        assert src == "b"
        assert view.stats.misplacements == 0

    def test_phantom_source_detected_and_rerouted(self):
        plane, session, catalog, view, clock = make("stale")
        catalog.register(Dataset("d", SIZE))
        catalog.bootstrap_replica("d", "a")
        catalog.bootstrap_replica("d", "b")
        session.placement_read(0.5)
        clock[0] = 1.0
        catalog.drop_replica("d", "b")       # b's copy physically gone
        session.placement_read(1.5)
        src, delay = view.transfer_source("d", "c")
        assert src == "a"                    # re-resolved to a real copy
        assert view.stats.phantom_sources == 1
        assert view.stats.misplacements == 1
        # one wasted metadata round to discover the phantom
        assert delay == pytest.approx(2 * plane.config.local_read_rtt_s)

    def test_unknown_dataset_falls_back_to_origin(self):
        plane, session, catalog, view, clock = make("stale")
        catalog.register(Dataset("seed", SIZE))
        catalog.bootstrap_replica("seed", "a")
        session.placement_read(0.5)
        clock[0] = 1.0
        catalog.register(Dataset("x", SIZE))   # mid-run product
        catalog.add_replica("x", "b", 1.0)
        session.placement_read(1.5)
        assert view.locations("x") == ["b"]
        assert view.stats.fallback_reads >= 1
        src, _ = view.transfer_source("x", "c")
        assert src == "b"                      # origin == only copy: no waste
        assert view.stats.misplacements == 0


class TestTruthServingReads:
    @pytest.mark.parametrize("mode", ["quorum", "lease"])
    def test_linearized_read_is_immune_to_staleness(self, mode):
        plane, session, catalog, view, clock = make(mode)
        catalog.register(Dataset("d", SIZE))
        catalog.bootstrap_replica("d", "a")
        session.placement_read(0.5)
        clock[0] = 1.0
        catalog.add_replica("d", "b", 1.0)
        session.placement_read(1.5)          # same instant the stale path
        assert session.pinned_truth          # misplaces (see above)
        src, delay = view.transfer_source("d", "c")
        assert (src, delay) == ("b", 0.0)
        assert view.stats.misplacements == 0
        assert view.has_replica("d", "b")
        assert view.version == catalog.version
        assert view.locations("d") == catalog.locations("d")

