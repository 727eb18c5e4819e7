"""Small-message latency helper.

Control-plane traffic (function invocations, scheduler RPCs) is dominated
by propagation latency, not bandwidth. :func:`rtt` gives the unloaded
round-trip time between two sites; FaaS routing ranks endpoints by it.
"""

from __future__ import annotations

from repro.continuum.topology import Topology


def rtt(topology: Topology, a: str, b: str) -> float:
    """Unloaded round-trip time between two sites (seconds)."""
    return 2.0 * topology.path_info(a, b).latency_s
