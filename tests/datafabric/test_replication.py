import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.datafabric import (
    Dataset,
    ReplicaCatalog,
    ReplicationPolicy,
    ReplicationService,
    StagedReader,
    TransferService,
)
from repro.errors import DataFabricError
from repro.netsim import FlowNetwork
from repro.simcore import Simulator, Timeout


def make_world():
    """device -- edge -- cloud chain; data lives in the cloud."""
    topo = Topology()
    topo.add_site(Site("device", Tier.DEVICE))
    topo.add_site(Site("edge", Tier.EDGE))
    topo.add_site(Site("cloud", Tier.CLOUD))
    topo.add_link("device", "edge", Link(0.0, 100.0))
    topo.add_link("edge", "cloud", Link(0.0, 100.0))
    sim = Simulator()
    net = FlowNetwork(sim, topo)
    cat = ReplicaCatalog()
    for i in range(3):
        cat.register(Dataset(f"d{i}", 100.0))
        cat.add_replica(f"d{i}", "cloud")
    svc = TransferService(sim, net, cat)
    return sim, net, cat, svc


class TestPolicy:
    def test_requires_targets(self):
        with pytest.raises(DataFabricError):
            ReplicationPolicy(targets=())

    def test_unknown_target_rejected(self):
        sim, net, cat, svc = make_world()
        with pytest.raises(DataFabricError):
            ReplicationService(svc, ReplicationPolicy(targets=("mars",)))


class TestReplicationTriggers:
    def test_hot_dataset_replicated_to_target(self):
        sim, net, cat, svc = make_world()
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("edge",), hot_after=3,
        ))
        for _ in range(3):
            rep.record_access("d0", "device")
        sim.run()
        assert cat.has_replica("d0", "edge")
        assert rep.replications_done == 1
        assert rep.bytes_replicated == 100.0

    def test_cold_dataset_untouched(self):
        sim, net, cat, svc = make_world()
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("edge",), hot_after=3,
        ))
        rep.record_access("d0", "device")
        rep.record_access("d0", "device")
        sim.run()
        assert not cat.has_replica("d0", "edge")
        assert rep.replications_started == 0

    def test_no_duplicate_replication(self):
        sim, net, cat, svc = make_world()
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("edge",), hot_after=1,
        ))
        for _ in range(10):
            rep.record_access("d0", "device")
        sim.run()
        assert rep.replications_started == 1
        assert net.flows_started == 1

    def test_already_present_not_repushed(self):
        sim, net, cat, svc = make_world()
        cat.add_replica("d0", "edge")
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("edge",), hot_after=1,
        ))
        rep.record_access("d0", "device")
        sim.run()
        assert rep.replications_started == 0

    def test_inflight_bound_respected(self):
        sim, net, cat, svc = make_world()
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("edge",), hot_after=1, max_inflight=1,
        ))
        for i in range(3):
            rep.record_access(f"d{i}", "device")
        # only one transfer active at a time
        assert rep.pending == 3
        assert net.active_flow_count <= 1
        sim.run()
        assert rep.replications_done == 3
        assert rep.pending == 0

    def test_unknown_dataset_rejected(self):
        sim, net, cat, svc = make_world()
        rep = ReplicationService(svc, ReplicationPolicy(targets=("edge",)))
        with pytest.raises(DataFabricError):
            rep.record_access("ghost", "device")


class TestIntegrationWithReader:
    def test_reads_after_replication_are_faster(self):
        sim, net, cat, svc = make_world()
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("edge",), hot_after=2,
        ))
        reader = StagedReader(svc, replication=rep)
        latencies = []

        def consumer():
            for _ in range(4):
                outcome = yield reader.read("d0", "device")
                latencies.append(outcome.latency_s)
                yield Timeout(10.0)  # think time lets replication land

        sim.run_process(consumer())
        # first read: cloud->device (2 hops, 2 s shared-path estimate);
        # after it, d0 has a device replica so later reads are local —
        # but the *edge* replica matters for other device-tier readers;
        # verify it exists and counts were recorded
        assert cat.has_replica("d0", "edge")
        assert rep.access_count("d0") == 4
        assert latencies[0] > 0
        assert latencies[-1] == 0.0  # device replica from first staging

    def test_replication_counts_failures_and_retries_eligibility(self):
        # failing pushes release the scheduled latch for retry
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        topo.add_site(Site("b", Tier.CLOUD))
        topo.add_link("a", "b", Link(0.0, 100.0))
        sim = Simulator()
        net = FlowNetwork(sim, topo)
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 10.0))
        cat.add_replica("d", "b")
        from repro.utils.rng import RngRegistry

        svc = TransferService(sim, net, cat, failure_prob=1.0,
                              max_attempts=1, rngs=RngRegistry(0))
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("a",), hot_after=1,
        ))
        rep.record_access("d", "a")
        sim.run()
        assert rep.replications_done == 0
        assert not cat.has_replica("d", "a")
        # another access may retry (latch released)
        rep.record_access("d", "a")
        assert rep.pending == 1
