"""Health-aware endpoint failover: routing consults circuit breakers."""

import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.faas import (
    ContainerModel,
    FaaSFabric,
    FunctionDef,
    SerializationModel,
    healthy_endpoints,
    pick_endpoint,
)
from repro.netsim import FlowNetwork
from repro.resilience import BreakerConfig, BreakerRegistry
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


def tripped(registry: BreakerRegistry, site: str, now: float = 0.0):
    breaker = registry.get(site)
    for _ in range(registry.config.failure_threshold):
        breaker.record_failure(now)
    return breaker


class TestHealthyEndpoints:
    def test_open_circuit_is_excluded(self):
        _, fabric = make_fabric()
        breakers = BreakerRegistry(BreakerConfig(failure_threshold=2,
                                                 reset_timeout_s=30.0))
        tripped(breakers, "cloud")
        assert healthy_endpoints(fabric, breakers=breakers) == ["edge"]

    def test_avoid_set_is_excluded(self):
        _, fabric = make_fabric()
        assert healthy_endpoints(fabric, avoid={"edge"}) == ["cloud"]

    def test_all_open_falls_back_to_full_set(self):
        _, fabric = make_fabric()
        breakers = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                                 reset_timeout_s=30.0))
        tripped(breakers, "edge")
        tripped(breakers, "cloud")
        assert set(healthy_endpoints(fabric, breakers=breakers)) == \
            {"edge", "cloud"}

    def test_half_open_endpoint_is_eligible_again(self):
        _, fabric = make_fabric()
        breakers = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                                 reset_timeout_s=10.0))
        tripped(breakers, "cloud", now=0.0)
        assert healthy_endpoints(fabric, breakers=breakers,
                                 now=5.0) == ["edge"]
        # after the reset timeout the probe is admitted
        assert set(healthy_endpoints(fabric, breakers=breakers,
                                     now=11.0)) == {"edge", "cloud"}


class TestPickEndpoint:
    def test_routing_skips_open_circuit(self):
        """fastest would pick cloud; with cloud's breaker open the
        invocation fails over to the edge endpoint."""
        _, fabric = make_fabric(work=2.0)
        assert pick_endpoint(fabric, "f", "client", "fastest") == "cloud"
        breakers = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                                 reset_timeout_s=30.0))
        tripped(breakers, "cloud")
        assert pick_endpoint(fabric, "f", "client", "fastest",
                             breakers=breakers) == "edge"

    def test_recovery_restores_preferred_endpoint(self):
        _, fabric = make_fabric(work=2.0)
        breakers = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                                 reset_timeout_s=10.0))
        breaker = tripped(breakers, "cloud", now=0.0)
        assert pick_endpoint(fabric, "f", "client", "fastest",
                             breakers=breakers, now=1.0) == "edge"
        # half-open probe goes back to cloud; success closes the circuit
        assert pick_endpoint(fabric, "f", "client", "fastest",
                             breakers=breakers, now=11.0) == "cloud"
        breaker.record_success(11.5)
        assert pick_endpoint(fabric, "f", "client", "fastest",
                             breakers=breakers, now=12.0) == "cloud"

    def test_invoke_via_passes_breakers_through(self):
        sim, fabric = make_fabric(work=2.0)
        breakers = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                                 reset_timeout_s=1e6))
        tripped(breakers, "cloud")
        results = {}

        def client():
            invocation = yield invoke_via(
                fabric, "f", client_site="client", policy="fastest",
                breakers=breakers,
            )
            results["site"] = invocation.endpoint_site

        sim.process(client())
        sim.run()
        assert results["site"] == "edge"

    def test_invoke_via_without_breakers_unchanged(self):
        sim, fabric = make_fabric(work=2.0)
        results = {}

        def client():
            invocation = yield invoke_via(
                fabric, "f", client_site="client", policy="fastest"
            )
            results["site"] = invocation.endpoint_site

        sim.process(client())
        sim.run()
        assert results["site"] == "cloud"

    def test_latency_reflects_failover(self):
        """Failover is not free: the edge serves slower — exactly the
        degraded-but-alive tradeoff breakers buy."""
        _, fabric = make_fabric(work=2.0)
        breakers = BreakerRegistry(BreakerConfig(failure_threshold=1,
                                                 reset_timeout_s=1e6))
        tripped(breakers, "cloud")
        site = pick_endpoint(fabric, "f", "client", "fastest",
                             breakers=breakers)
        assert site == "edge"
        from repro.faas import estimate_total_latency
        assert estimate_total_latency(fabric, "f", "client", "edge") > \
            estimate_total_latency(fabric, "f", "client", "cloud")
