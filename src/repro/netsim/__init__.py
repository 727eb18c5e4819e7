"""Flow-level network simulation.

Rather than simulating packets, transfers are modeled as *fluid flows*
that share link bandwidth max-min fairly — the standard abstraction for
WAN-scale studies, accurate for long-lived TCP-like transfers while
costing O(flows x links) per flow arrival/departure instead of per-packet
work.

- :func:`max_min_fair_rates` — progressive-filling allocator (numpy),
- :func:`equal_share_rates` — naive baseline kept for ablations,
- :class:`FlowNetwork` — binds the allocator to the event kernel:
  ``transfer()`` returns a waitable that fires when the bytes land,
- :class:`Flow` — bookkeeping record per transfer.
"""

from repro.netsim.fairness import equal_share_rates, max_min_fair_rates
from repro.netsim.flow import Flow
from repro.netsim.network import FlowNetwork
from repro.netsim.latency import rtt

__all__ = [
    "max_min_fair_rates",
    "equal_share_rates",
    "Flow",
    "FlowNetwork",
    "rtt",
]
