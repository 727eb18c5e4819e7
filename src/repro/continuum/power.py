"""Per-site energy model.

Busy power only: a placement on an always-on fleet adds the energy of
the work itself, whichever site it picks. Energy is what the E7
multi-objective experiments trade off against makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class PowerModel:
    """Power model for one worker slot.

    ``busy_watts`` is drawn whenever a slot is executing. It is per-slot
    so that site-level power scales with the number of slots.
    """

    busy_watts: float = 0.0

    def __post_init__(self):
        check_non_negative("busy_watts", self.busy_watts)

    def marginal_energy(self, busy_seconds: float) -> float:
        """Energy attributable to the work itself; used by schedulers
        comparing placements on an always-on fleet."""
        return self.busy_watts * float(busy_seconds)
