"""Network links between sites."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive

# Signal propagation speed in optical fibre: roughly 2/3 of c.
FIBER_KM_PER_SECOND = 200_000.0


def propagation_latency(distance_km: float) -> float:
    """One-way speed-of-light-in-fibre latency for ``distance_km``.

    This is the physical floor the keynote's "time and space merge"
    observation refers to: no engineering removes it.
    """
    check_non_negative("distance_km", distance_km)
    return distance_km / FIBER_KM_PER_SECOND


@dataclass(frozen=True)
class Link:
    """A bidirectional network edge.

    Attributes
    ----------
    latency_s:
        One-way propagation + forwarding latency in seconds.
    bandwidth_Bps:
        Capacity in bytes/second, shared max-min fairly among flows by
        the network simulator.
    usd_per_gb:
        Monetary transfer cost per GB crossing this link (usually only
        nonzero on cloud egress edges).
    """

    latency_s: float
    bandwidth_Bps: float
    usd_per_gb: float = 0.0

    def __post_init__(self):
        check_non_negative("latency_s", self.latency_s)
        check_positive("bandwidth_Bps", self.bandwidth_Bps)
        check_non_negative("usd_per_gb", self.usd_per_gb)
