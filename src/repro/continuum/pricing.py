"""Per-site monetary cost model (cloud-style pricing)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class PricingModel:
    """Usage-based pricing for one site.

    ``usd_per_core_hour`` is the compute price per slot-hour (0 for
    owned edge hardware, >0 for cloud). Moving bytes is priced on the
    links (:attr:`~repro.continuum.link.Link.usd_per_gb`), the term that
    makes data gravity a monetary issue, not just a latency one.
    """

    usd_per_core_hour: float = 0.0

    def __post_init__(self):
        check_non_negative("usd_per_core_hour", self.usd_per_core_hour)

    def compute_cost(self, busy_seconds: float, slots: int = 1) -> float:
        """Dollars for ``busy_seconds`` of execution on ``slots`` slots."""
        return self.usd_per_core_hour * (float(busy_seconds) / 3600.0) * slots
