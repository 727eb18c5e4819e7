"""Routing with no health input: endpoints are picked by unloaded
estimates alone, so a slower endpoint is only ever a fallback cost."""

from repro.continuum import Link, Site, Tier, Topology
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
from tests.faas.test_fabric_routing_integration import invoke_via

NO_SER = SerializationModel(base_s=0.0, bytes_per_second=1e18)
NO_CONTAINERS = ContainerModel(cold_start_s=0.0, warm_start_s=0.0)


def make_fabric(work=2.0):
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


class TestPickEndpoint:
    def test_invoke_via_without_breakers_unchanged(self):
        sim, fabric = make_fabric(work=2.0)
        results = {}

        def client():
            invocation = yield invoke_via(fabric, "f", client_site="client")
            results["site"] = invocation.endpoint_site

        sim.process(client())
        sim.run()
        assert results["site"] == "cloud"

    def test_latency_reflects_failover(self):
        """Serving at the edge instead of the cloud is not free: the edge
        estimate is the slower one, which is why routing picks the cloud."""
        _, fabric = make_fabric(work=2.0)
        assert pick_endpoint(fabric, "f", "client") == "cloud"
        assert estimate_total_latency(fabric, "f", "client", "edge") > \
            estimate_total_latency(fabric, "f", "client", "cloud")
