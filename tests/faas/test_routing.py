import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import FaaSError
from repro.faas import (
    ContainerModel,
    FaaSFabric,
    FunctionDef,
    SerializationModel,
    estimate_total_latency,
    pick_endpoint,
)
from repro.netsim import FlowNetwork
from repro.simcore import Simulator

NO_SER = SerializationModel(base_s=0.0, bytes_per_second=1e18)
NO_CONTAINERS = ContainerModel(cold_start_s=0.0, warm_start_s=0.0)


def make_fabric(work=2.0):
    """client near a slow edge endpoint, far from a fast cloud one."""
    topo = Topology()
    topo.add_site(Site("client", Tier.DEVICE))
    topo.add_site(Site("edge", Tier.EDGE, speed=1.0, slots=1))
    topo.add_site(Site("cloud", Tier.CLOUD, speed=16.0, slots=8))
    topo.add_link("client", "edge", Link(0.001, 1e9))
    topo.add_link("edge", "cloud", Link(0.050, 1e9))
    sim = Simulator()
    fabric = FaaSFabric(sim, FlowNetwork(sim, topo))
    fabric.registry.register(FunctionDef("f", work=work))
    for site in ("edge", "cloud"):
        fabric.deploy_endpoint(site, containers=NO_CONTAINERS,
                               serialization=NO_SER)
    return sim, fabric


class TestEstimates:
    def test_estimate_components(self):
        _, fabric = make_fabric(work=2.0)
        est = estimate_total_latency(fabric, "f", "client", "edge")
        # rtt 0.002 + exec 2.0
        assert est == pytest.approx(2.002)
        est_cloud = estimate_total_latency(fabric, "f", "client", "cloud")
        # rtt 2*(0.051) + exec 0.125
        assert est_cloud == pytest.approx(0.102 + 0.125)


class TestPolicies:
    def test_fastest_picks_cloud_for_heavy_work(self):
        _, fabric = make_fabric(work=2.0)
        assert pick_endpoint(fabric, "f", "client") == "cloud"

    def test_fastest_picks_edge_for_tiny_work(self):
        _, fabric = make_fabric(work=0.01)
        assert pick_endpoint(fabric, "f", "client") == "edge"

    def test_unknown_function(self):
        _, fabric = make_fabric()
        with pytest.raises(FaaSError):
            pick_endpoint(fabric, "ghost", "client")

    def test_no_endpoints(self):
        topo = Topology()
        topo.add_site(Site("client", Tier.DEVICE))
        sim = Simulator()
        fabric = FaaSFabric(sim, FlowNetwork(sim, topo))
        fabric.registry.register(FunctionDef("f", work=1.0))
        with pytest.raises(FaaSError):
            pick_endpoint(fabric, "f", "client")
