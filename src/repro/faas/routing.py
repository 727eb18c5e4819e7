"""Endpoint-selection policies for the FaaS fabric.

The fabric routes to an explicit endpoint; these helpers choose one.
All estimates are unloaded (no queue knowledge crosses the wire in real
federations either); the ``least-loaded`` policy adds the one signal an
endpoint does export — its queue length.

Health-aware failover: pass a
:class:`~repro.resilience.BreakerRegistry` (and/or an explicit
``avoid`` set) and routing skips endpoints whose circuit is open —
half-open endpoints stay eligible so a probe can close them again.
When *every* endpoint is excluded, routing degrades to the full set
rather than failing: an all-open fleet means the breakers carry no
signal worth honouring.
"""

from __future__ import annotations

from repro.errors import FaaSError
from repro.faas.fabric import FaaSFabric
from repro.netsim.latency import rtt
from repro.resilience.breaker import BreakerRegistry

POLICIES = ("fastest", "nearest", "least-loaded")


def estimate_total_latency(fabric: FaaSFabric, function: str,
                           client_site: str, endpoint_site: str) -> float:
    """Unloaded end-to-end estimate: network RTT + endpoint service."""
    endpoint = fabric.endpoint_at(endpoint_site)
    return (rtt(fabric.topology, client_site, endpoint_site)
            + endpoint.estimate_service_time(function))


def healthy_endpoints(fabric: FaaSFabric, *,
                      breakers: BreakerRegistry | None = None,
                      avoid=(), now: float | None = None) -> list[str]:
    """Deployed endpoint sites minus open circuits and ``avoid``;
    degrades to the full set when that would leave nothing."""
    sites = fabric.endpoint_sites
    if not sites:
        return sites
    if now is None:
        now = fabric.sim.now
    excluded = set(avoid)
    if breakers is not None:
        excluded |= breakers.blocked_targets(sites, now)
    healthy = [s for s in sites if s not in excluded]
    return healthy if healthy else sites


def pick_endpoint(fabric: FaaSFabric, function: str, client_site: str,
                  policy: str = "fastest", *,
                  breakers: BreakerRegistry | None = None,
                  avoid=(), now: float | None = None) -> str:
    """Choose an endpoint site for one invocation.

    - ``fastest`` — minimal estimated RTT + service time,
    - ``nearest`` — minimal network RTT only (latency-dominated work),
    - ``least-loaded`` — shortest worker queue, ties by ``fastest``.

    ``breakers``/``avoid`` filter unhealthy endpoints first (see
    :func:`healthy_endpoints`); if the chosen endpoint's breaker is
    half-open the selection *is* its probe — callers feed the outcome
    back via ``record_success``/``record_failure``.
    """
    if not fabric.endpoint_sites:
        raise FaaSError("fabric has no endpoints deployed")
    if policy not in POLICIES:
        raise FaaSError(f"unknown routing policy {policy!r}; "
                        f"known: {POLICIES}")
    fabric.registry.get(function)
    sites = healthy_endpoints(fabric, breakers=breakers, avoid=avoid,
                              now=now)

    if policy == "nearest":
        return min(sites,
                   key=lambda s: rtt(fabric.topology, client_site, s))
    if policy == "least-loaded":
        return min(
            sites,
            key=lambda s: (
                fabric.endpoint_at(s).queue_length,
                estimate_total_latency(fabric, function, client_site, s),
            ),
        )
    return min(
        sites,
        key=lambda s: estimate_total_latency(fabric, function,
                                             client_site, s),
    )
