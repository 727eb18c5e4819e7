"""The routed client, end to end: ``pick_endpoint`` then ``invoke``."""

import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import FaaSError
from repro.faas import (
    ContainerModel,
    FaaSFabric,
    FunctionDef,
    SerializationModel,
    pick_endpoint,
)
from repro.netsim import FlowNetwork
from repro.simcore import Simulator

NO_SER = SerializationModel(base_s=0.0, bytes_per_second=1e18)
NO_CONTAINERS = ContainerModel(cold_start_s=0.0, warm_start_s=0.0)


def make_fabric(work):
    topo = Topology()
    topo.add_site(Site("client", Tier.DEVICE))
    topo.add_site(Site("edge", Tier.EDGE, speed=1.0, slots=2))
    topo.add_site(Site("cloud", Tier.CLOUD, speed=16.0, slots=8))
    topo.add_link("client", "edge", Link(0.001, 1e9))
    topo.add_link("edge", "cloud", Link(0.050, 1e9))
    sim = Simulator()
    fabric = FaaSFabric(sim, FlowNetwork(sim, topo))
    fabric.registry.register(FunctionDef("f", work=work,
                                         request_bytes=10.0,
                                         response_bytes=10.0))
    for site in ("edge", "cloud"):
        fabric.deploy_endpoint(site, containers=NO_CONTAINERS,
                               serialization=NO_SER)
    return sim, fabric


def invoke_via(fabric, function, *, client_site, policy="fastest",
               breakers=None):
    """Route with a named policy, then invoke at the chosen endpoint."""
    endpoint_site = pick_endpoint(fabric, function, client_site,
                                  policy=policy, breakers=breakers)
    return fabric.invoke(function, client_site=client_site,
                         endpoint_site=endpoint_site)


class TestInvokeVia:
    def test_routes_heavy_work_to_cloud(self):
        sim, fabric = make_fabric(work=4.0)

        def body():
            inv = yield invoke_via(fabric, "f", client_site="client")
            return inv

        inv = sim.run_process(body())
        assert inv.endpoint_site == "cloud"
        # exec 0.25 + rtt 0.102 + tiny serialization
        assert inv.total_latency == pytest.approx(0.25 + 0.102, abs=1e-3)

    def test_routes_light_work_to_edge(self):
        sim, fabric = make_fabric(work=0.001)

        def body():
            inv = yield invoke_via(fabric, "f", client_site="client",
                                   policy="nearest")
            return inv

        inv = sim.run_process(body())
        assert inv.endpoint_site == "edge"

    def test_bad_policy_raises(self):
        _, fabric = make_fabric(work=1.0)
        with pytest.raises(FaaSError):
            invoke_via(fabric, "f", client_site="client", policy="vibes")

    def test_stream_of_routed_invocations(self):
        sim, fabric = make_fabric(work=4.0)
        latencies = []

        def client(i):
            def body():
                yield sim.timeout(0.1 * i)
                inv = yield invoke_via(fabric, "f", client_site="client")
                latencies.append(inv.total_latency)
            return body()

        for i in range(10):
            sim.process(client(i))
        sim.run()
        assert len(latencies) == 10
        assert all(l > 0 for l in latencies)
