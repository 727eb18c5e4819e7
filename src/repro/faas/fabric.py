"""The federated fabric: route invocations to endpoints over the network.

:class:`FaaSFabric` is the funcX-shaped front door: a client at one site
invokes a registered function at (or routed to) an endpoint site; request
and response payloads cross the simulated network, and the endpoint model
charges queueing/startup/execution. The returned record separates network
time from endpoint service time, which is what the SLO experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.continuum.topology import Topology
from repro.errors import FaaSError
from repro.faas.endpoint import Endpoint, InvocationRecord
from repro.faas.function import FunctionRegistry
from repro.netsim.network import FlowNetwork
from repro.simcore.process import Signal
from repro.simcore.simulation import Simulator


@dataclass
class RemoteInvocation:
    """End-to-end outcome of a fabric invocation."""

    function: str
    client_site: str
    endpoint_site: str
    submitted: float
    completed: float = 0.0
    request_net_time: float = 0.0
    response_net_time: float = 0.0
    record: InvocationRecord | None = None

    @property
    def total_latency(self) -> float:
        return self.completed - self.submitted


class FaaSFabric:
    """Registry + endpoints + network, glued into one invocable service."""

    def __init__(self, sim: Simulator, network: FlowNetwork,
                 registry: FunctionRegistry | None = None):
        self.sim = sim
        self.network = network
        self.topology: Topology = network.topology
        self.registry = registry or FunctionRegistry()
        self._endpoints: dict[str, Endpoint] = {}
        self.invocations: list[RemoteInvocation] = []

    # -- endpoints ------------------------------------------------------------
    def deploy_endpoint(self, site_name: str, **endpoint_kwargs) -> Endpoint:
        """Stand up an endpoint at ``site_name`` (one per site)."""
        if site_name in self._endpoints:
            raise FaaSError(f"endpoint already deployed at {site_name!r}")
        site = self.topology.site(site_name)
        endpoint = Endpoint(self.sim, site, self.registry, **endpoint_kwargs)
        self._endpoints[site_name] = endpoint
        return endpoint

    def endpoint_at(self, site_name: str) -> Endpoint:
        try:
            return self._endpoints[site_name]
        except KeyError:
            raise FaaSError(f"no endpoint at {site_name!r}") from None

    @property
    def endpoint_sites(self) -> list[str]:
        return list(self._endpoints)

    # -- invocation -------------------------------------------------------------
    def invoke(
        self,
        function: str,
        *,
        client_site: str,
        endpoint_site: str,
        request_bytes: float | None = None,
        response_bytes: float | None = None,
    ) -> Signal:
        """Invoke ``function`` from ``client_site`` on the endpoint at
        ``endpoint_site``; fires with a :class:`RemoteInvocation`."""
        fn = self.registry.get(function)
        endpoint = self.endpoint_at(endpoint_site)
        if client_site not in self.topology:
            raise FaaSError(f"unknown client site {client_site!r}")
        req_bytes = fn.request_bytes if request_bytes is None else request_bytes
        resp_bytes = fn.response_bytes if response_bytes is None else response_bytes

        invocation = RemoteInvocation(
            function=function, client_site=client_site,
            endpoint_site=endpoint_site, submitted=self.sim.now,
        )
        signal = self.sim.signal()
        self.sim.process(
            self._invoke_proc(endpoint, fn.name, req_bytes, resp_bytes,
                              invocation, signal),
            name=f"fabric:{function}@{endpoint_site}",
        )
        return signal

    def _invoke_proc(self, endpoint: Endpoint, function: str,
                     req_bytes: float, resp_bytes: float,
                     invocation: RemoteInvocation, signal: Signal):
        t0 = self.sim.now
        yield self.network.transfer(
            invocation.client_site, invocation.endpoint_site, req_bytes
        )
        invocation.request_net_time = self.sim.now - t0

        record: InvocationRecord = yield endpoint.invoke(function)
        invocation.record = record

        t1 = self.sim.now
        yield self.network.transfer(
            invocation.endpoint_site, invocation.client_site, resp_bytes
        )
        invocation.response_net_time = self.sim.now - t1
        invocation.completed = self.sim.now
        self.invocations.append(invocation)
        signal.trigger(invocation)
