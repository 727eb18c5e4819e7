"""E5 — SLO satisfaction vs network latency (Figure).

Question: when do you *have* to compute at the edge? A Poisson stream
of deadline-carrying inference requests can run on a slow nearby edge
endpoint or a fast faraway cloud endpoint. The edge-cloud RTT sweeps
from ~2 ms to ~800 ms; each placement policy reports its deadline
satisfaction.

Expected shape: edge satisfaction is flat in RTT (it never touches the
WAN); cloud satisfaction falls off a cliff once RTT + service exceeds
the deadline; the smart (estimate-based) policy follows the upper
envelope of the two.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult
from repro.continuum import Link, Site, Tier, Topology
from repro.faas import ContainerModel, FaaSFabric, FunctionDef, pick_endpoint
from repro.netsim import FlowNetwork
from repro.simcore import Simulator, Timeout
from repro.utils.rng import RngRegistry
from repro.utils.units import Gbps, MILLISECOND, Mbps
from repro.workloads import request_stream

DEADLINE_S = 0.5
RATE_PER_S = 3.0
HORIZON_S = 60.0
FN = FunctionDef("infer", work=2.0, kind="dnn-inference",
                 request_bytes=2e5, response_bytes=1e4)
WARM = ContainerModel(cold_start_s=1.0, warm_start_s=0.005,
                      keep_alive_s=3600.0)


def _build(latency_s: float):
    topo = Topology("e5")
    topo.add_site(Site("client", Tier.DEVICE, speed=0.1))
    topo.add_site(Site("edge", Tier.EDGE, speed=1.0, slots=4,
                       specializations={"dnn-inference": 8.0}))
    topo.add_site(Site("cloud", Tier.CLOUD, speed=4.0, slots=32,
                       specializations={"dnn-inference": 32.0}))
    topo.add_link("client", "edge", Link(1 * MILLISECOND, 200 * Mbps))
    topo.add_link("edge", "cloud", Link(latency_s, 10 * Gbps))
    sim = Simulator()
    fabric = FaaSFabric(sim, FlowNetwork(sim, topo))
    fabric.registry.register(FN)
    fabric.deploy_endpoint("edge", containers=WARM)
    fabric.deploy_endpoint("cloud", containers=WARM)
    return sim, topo, fabric


def _policy_pick(policy: str, topo, fabric) -> str:
    if policy in ("edge", "cloud"):
        return policy
    # "smart": the fabric's fastest-estimate routing
    return pick_endpoint(fabric, "infer", "client")


def _drive(latency_s: float, policy: str, seed: int) -> dict:
    sim, topo, fabric = _build(latency_s)
    requests = request_stream(RATE_PER_S, HORIZON_S, deadline_s=DEADLINE_S,
                              rng=RngRegistry(seed).stream("e5-arrivals"))
    met = []

    def client(req):
        yield Timeout(req.arrival_s)
        target = _policy_pick(policy, topo, fabric)
        inv = yield fabric.invoke("infer", client_site="client",
                                  endpoint_site=target)
        met.append(inv.total_latency <= req.deadline_s)

    for req in requests:
        sim.process(client(req))
    sim.run()
    return {
        "requests": len(met),
        "satisfaction": sum(met) / len(met) if met else 1.0,
    }


def run_experiment(quick: bool = False, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult("E5", "SLO satisfaction vs edge-cloud latency")
    n = 4 if quick else 7
    latencies = np.logspace(np.log10(1 * MILLISECOND),
                            np.log10(400 * MILLISECOND), n)
    for latency in latencies:
        for policy in ("edge", "cloud", "smart"):
            row = _drive(float(latency), policy, seed)
            result.row(one_way_latency_ms=latency * 1e3, policy=policy, **row)
    result.note(f"deadline {DEADLINE_S * 1e3:.0f} ms end-to-end")
    result.note("cloud infer ~16x faster than edge but pays 2x WAN latency")
    return result
