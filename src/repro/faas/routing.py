"""Endpoint selection for the FaaS fabric.

The fabric routes to an explicit endpoint; :func:`pick_endpoint` chooses
one by the least unloaded estimate of network RTT plus endpoint service
time. Estimates carry no queue knowledge: none crosses the wire in real
federations either.
"""

from __future__ import annotations

from repro.errors import FaaSError
from repro.faas.fabric import FaaSFabric
from repro.netsim.latency import rtt


def estimate_total_latency(fabric: FaaSFabric, function: str,
                           client_site: str, endpoint_site: str) -> float:
    """Unloaded end-to-end estimate: network RTT + endpoint service."""
    endpoint = fabric.endpoint_at(endpoint_site)
    return (rtt(fabric.topology, client_site, endpoint_site)
            + endpoint.estimate_service_time(function))


def pick_endpoint(fabric: FaaSFabric, function: str, client_site: str) -> str:
    """The deployed endpoint site with the least estimated RTT +
    service time for one invocation; ties go to the first deployed."""
    if not fabric.endpoint_sites:
        raise FaaSError("fabric has no endpoints deployed")
    fabric.registry.get(function)
    return min(
        fabric.endpoint_sites,
        key=lambda s: estimate_total_latency(fabric, function,
                                             client_site, s),
    )
