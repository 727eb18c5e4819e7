import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import FaaSError
from repro.faas import (
    Batcher,
    BatchPolicy,
    ContainerModel,
    Endpoint,
    FaaSFabric,
    FunctionDef,
    FunctionRegistry,
    SerializationModel,
)
from repro.netsim import FlowNetwork
from repro.simcore import Simulator, Timeout

NO_SER = SerializationModel(base_s=0.0, bytes_per_second=1e18)
NO_CONTAINERS = ContainerModel(cold_start_s=0.0, warm_start_s=0.0)


def make_batcher(max_batch=4, max_wait=0.05, work=1.0, overhead=0.0, slots=4):
    sim = Simulator()
    site = Site("s", Tier.EDGE, speed=1.0, slots=slots)
    reg = FunctionRegistry()
    reg.register(FunctionDef("f", work=work, batch_overhead_work=overhead))
    ep = Endpoint(sim, site, reg, containers=NO_CONTAINERS, serialization=NO_SER)
    batcher = Batcher(ep, "f", BatchPolicy(max_batch=max_batch, max_wait_s=max_wait))
    return sim, ep, batcher


class TestBatchPolicy:
    def test_bad_max_batch(self):
        with pytest.raises(FaaSError):
            BatchPolicy(max_batch=0)

    def test_unknown_function_rejected_at_construction(self):
        sim, ep, _ = make_batcher()
        with pytest.raises(FaaSError):
            Batcher(ep, "ghost", BatchPolicy())


class TestBatchDispatch:
    def test_full_batch_dispatches_immediately(self):
        sim, ep, batcher = make_batcher(max_batch=3, work=1.0)
        results = []

        def client():
            result = yield batcher.submit()
            results.append(result)

        for _ in range(3):
            sim.process(client())
        sim.run()
        assert len(results) == 3
        assert all(r.batch_size == 3 for r in results)
        assert all(r.dispatched == r.submitted for r in results)
        # one invocation of 3x work
        assert all(r.latency == pytest.approx(3.0) for r in results)
        assert batcher.batches_dispatched == 1

    def test_timer_flush_partial_batch(self):
        sim, ep, batcher = make_batcher(max_batch=8, max_wait=0.5, work=1.0)
        results = []

        def client():
            result = yield batcher.submit()
            results.append(result)

        sim.process(client())
        sim.run()
        assert results[0].batch_size == 1
        assert (results[0].dispatched - results[0].submitted
                == pytest.approx(0.5))
        assert results[0].latency == pytest.approx(0.5 + 1.0)

    def test_stream_forms_multiple_batches(self):
        sim, ep, batcher = make_batcher(max_batch=2, max_wait=10.0, work=1.0)
        results = []

        def client(delay):
            yield Timeout(delay)
            result = yield batcher.submit()
            results.append(result)

        for delay in (0.0, 0.0, 1.0, 1.0):
            sim.process(client(delay))
        sim.run()
        assert batcher.batches_dispatched == 2
        assert batcher.requests_served == 4
        assert all(r.batch_size == 2 for r in results)

    def test_batch_overhead_amortized(self):
        # overhead 4, per-item 1: batch of 4 takes 8 (2/request);
        # four singles take 4 * 5 = 20.
        sim, ep, batcher = make_batcher(max_batch=4, work=1.0, overhead=4.0)
        results = []

        def client():
            result = yield batcher.submit()
            results.append(result)

        for _ in range(4):
            sim.process(client())
        sim.run()
        assert results[0].record.exec_time == pytest.approx(8.0)

    def test_passthrough_mode(self):
        sim, ep, batcher = make_batcher(max_batch=1, work=1.0)
        results = []

        def client():
            result = yield batcher.submit()
            results.append(result)

        sim.process(client())
        sim.run()
        assert results[0].batch_size == 1
        assert results[0].dispatched == results[0].submitted
        assert results[0].latency == pytest.approx(1.0)


def make_fabric(latency=0.1, bandwidth=1000.0):
    topo = Topology()
    topo.add_site(Site("client", Tier.DEVICE))
    topo.add_site(Site("server", Tier.CLOUD, speed=2.0, slots=4))
    topo.add_link("client", "server", Link(latency, bandwidth))
    sim = Simulator()
    net = FlowNetwork(sim, topo)
    fabric = FaaSFabric(sim, net)
    fabric.registry.register(
        FunctionDef("f", work=2.0, request_bytes=100.0, response_bytes=100.0)
    )
    fabric.deploy_endpoint("server", containers=NO_CONTAINERS,
                           serialization=NO_SER)
    return sim, fabric


class TestFabric:
    def test_remote_invocation_accounts_network_and_service(self):
        sim, fabric = make_fabric(latency=0.1, bandwidth=1000.0)

        def body():
            inv = yield fabric.invoke("f", client_site="client",
                                      endpoint_site="server")
            return inv

        inv = sim.run_process(body())
        # each leg: 0.1 latency + 100/1000 serialization = 0.2
        assert inv.request_net_time == pytest.approx(0.2)
        assert inv.response_net_time == pytest.approx(0.2)
        # work 2 at speed 2 => 1 s
        assert inv.record.service_time == pytest.approx(1.0)
        assert inv.total_latency == pytest.approx(1.4)
        assert fabric.invocations == [inv]

    def test_local_invocation_has_zero_network(self):
        sim, fabric = make_fabric()
        fabric.deploy_endpoint("client", containers=NO_CONTAINERS,
                               serialization=NO_SER)

        def body():
            inv = yield fabric.invoke("f", client_site="client",
                                      endpoint_site="client")
            return inv

        inv = sim.run_process(body())
        assert inv.request_net_time == inv.response_net_time == 0.0
        # client site speed 1 => work 2 takes 2 s
        assert inv.total_latency == pytest.approx(2.0)

    def test_payload_override_changes_network_time(self):
        sim, fabric = make_fabric(latency=0.0, bandwidth=1000.0)

        def body():
            inv = yield fabric.invoke("f", client_site="client",
                                      endpoint_site="server",
                                      request_bytes=5000.0,
                                      response_bytes=0.0)
            return inv

        inv = sim.run_process(body())
        assert inv.request_net_time == pytest.approx(5.0)
        assert inv.response_net_time == pytest.approx(0.0)

    def test_duplicate_endpoint_rejected(self):
        _, fabric = make_fabric()
        with pytest.raises(FaaSError):
            fabric.deploy_endpoint("server")

    def test_unknown_endpoint_site(self):
        _, fabric = make_fabric()
        with pytest.raises(FaaSError):
            fabric.invoke("f", client_site="client", endpoint_site="nowhere")

    def test_unknown_client_site(self):
        _, fabric = make_fabric()
        with pytest.raises(FaaSError):
            fabric.invoke("f", client_site="mars", endpoint_site="server")

    def test_endpoint_sites_listing(self):
        _, fabric = make_fabric()
        assert fabric.endpoint_sites == ["server"]
