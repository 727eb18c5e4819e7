"""Flow-level network simulation.

Rather than simulating packets, transfers are modeled as *fluid flows*
that share link bandwidth max-min fairly — the standard abstraction for
WAN-scale studies, accurate for long-lived TCP-like transfers while
costing O(live routes x links) per flow arrival/departure instead of
per-packet work.

- :func:`max_min_fair_rates` — progressive-filling solver (numpy),
- :class:`FlowNetwork` — binds the solver to the event kernel:
  ``transfer()`` returns a waitable that fires when the bytes land,
- :class:`Flow` — bookkeeping record per transfer.
"""

from repro.netsim.fairness import max_min_fair_rates
from repro.netsim.flow import Flow
from repro.netsim.network import FlowNetwork
from repro.netsim.latency import rtt

__all__ = [
    "max_min_fair_rates",
    "Flow",
    "FlowNetwork",
    "rtt",
]
