"""Differential oracle: a linearized (quorum/lease) view must agree
with a plain single-copy :class:`ReplicaCatalog` fed the identical
mutation sequence, on every event where both are defined — and once
replication quiesces, every node's committed image must agree too."""

import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.controlplane import (
    ControlPlane,
    ControlPlaneConfig,
    ControlPlaneSession,
    MirroredCatalog,
    ReplicatedCatalogView,
)
from repro.datafabric import Dataset, ReplicaCatalog
from repro.utils.rng import RngRegistry

SIZE = 100.0
NAMES = ("d0", "d1", "x0")

# (time, op, args) — d0 keeps >= 1 replica at all times so source
# resolution stays defined on both sides of the diff
SCRIPT = [
    (1.0, "add_replica", ("d0", "b")),
    (3.0, "register", ("x0",)),
    (3.0, "add_replica", ("x0", "b")),
    (5.0, "drop_replica", ("d0", "a")),
    (7.0, "add_replica", ("d1", "c")),
    (9.0, "add_replica", ("d0", "a")),
    (11.0, "add_replica", ("x0", "a")),
    (13.0, "drop_replica", ("x0", "b")),
    (15.0, "drop_replica", ("d1", "a")),
]


def topo3():
    topo = Topology()
    topo.add_site(Site("a", Tier.CLOUD))
    topo.add_site(Site("b", Tier.EDGE))
    topo.add_site(Site("c", Tier.EDGE))
    topo.add_link("a", "c", Link(0.0, 10.0))
    topo.add_link("b", "c", Link(0.0, 1000.0))
    return topo


def names(catalog):
    """Registered dataset names, in registration order."""
    return [name for name in NAMES if name in catalog]


def apply_event(catalog, op, args, t):
    if op == "register":
        catalog.register(Dataset(args[0], SIZE))
    elif op == "add_replica":
        catalog.add_replica(args[0], args[1], t)
    else:
        catalog.drop_replica(*args)


class TestQuorumEqualsSingleCopy:
    @pytest.mark.parametrize("mode", ["quorum", "lease"])
    def test_every_event_agrees(self, mode):
        topo = topo3()
        config = ControlPlaneConfig.for_lag(1.0, n_sites=5, read_mode=mode)
        plane = ControlPlane(config, RngRegistry(0))
        session = ControlPlaneSession(plane)
        mirrored = MirroredCatalog(plane)
        clock = [0.0]
        mirrored.bind_clock(lambda: clock[0])
        view = ReplicatedCatalogView(session, mirrored, topo)
        plain = ReplicaCatalog()
        for catalog in (mirrored, plain):
            catalog.register(Dataset("d0", SIZE))
            catalog.register(Dataset("d1", SIZE))
        mirrored.bootstrap_replica("d0", "a")
        mirrored.bootstrap_replica("d1", "a")
        plain.add_replica("d0", "a")
        plain.add_replica("d1", "a")

        for t, op, args in SCRIPT:
            clock[0] = t
            apply_event(mirrored, op, args, t)
            apply_event(plain, op, args, t)
            session.placement_read(t + 0.1)
            assert session.pinned_truth
            assert view.version == plain.version
            for name in names(plain):
                assert view.dataset(name) == plain.dataset(name)
                assert view.dataset_version(name) == \
                    plain.dataset_version(name)
                assert view.locations(name) == plain.locations(name)
                if plain.locations(name):
                    src, _ = view.transfer_source(name, "c")
                    ref, _ = plain.nearest_source(topo, name, "c")
                    assert src == ref
                for site in ("a", "b", "c"):
                    assert view.has_replica(name, site) == \
                        plain.has_replica(name, site)
        assert view.stats.misplacements == 0
        assert view.stats.wasted_bytes == 0.0
        assert view.stats.phantom_sources == 0

    def test_committed_state_converges_to_single_copy(self):
        config = ControlPlaneConfig.for_lag(1.0, n_sites=5,
                                            read_mode="quorum")
        plane = ControlPlane(config, RngRegistry(0))
        mirrored = MirroredCatalog(plane)
        clock = [0.0]
        mirrored.bind_clock(lambda: clock[0])
        plain = ReplicaCatalog()
        for catalog in (mirrored, plain):
            catalog.register(Dataset("d0", SIZE))
            catalog.register(Dataset("d1", SIZE))
        mirrored.bootstrap_replica("d0", "a")
        mirrored.bootstrap_replica("d1", "a")
        plain.add_replica("d0", "a")
        plain.add_replica("d1", "a")
        plane.advance(0.5)
        for t, op, args in SCRIPT:
            clock[0] = t
            apply_event(mirrored, op, args, t)
            apply_event(plain, op, args, t)
        plane.advance(200.0)
        assert plane.converged()
        committed = plane.committed_state()
        assert names(committed) == names(plain)
        for name in names(plain):
            assert sorted(committed.locations(name)) == \
                sorted(plain.locations(name))
        # once quiesced, even a stale follower read equals single-copy:
        # replication is eventually exact, not approximately so
        for node in plane.nodes:
            for name in names(plain):
                assert sorted(node.state.locations(name)) == \
                    sorted(plain.locations(name))
