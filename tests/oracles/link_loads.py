"""Per-link load of a rate allocation, for the fairness invariant tests.

Only the invariant tests read it (``link_loads(...) <= capacities``
within tolerance, and conservation against hand-summed crossings), so it
lives here rather than next to the solver in ``repro.netsim.fairness``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import NetworkError
from repro.netsim.fairness import _as_incidence


def _check_rates(rates, n_flows: int) -> np.ndarray:
    """Validate a rate vector the way the solver validates capacities:
    1-D, one entry per flow, no NaN, no negative entries (``inf`` is
    legal — it is the rate of a local flow)."""
    r = np.asarray(rates, dtype=float)
    if r.ndim != 1:
        raise NetworkError(f"rates must be a 1-D sequence, got shape {r.shape}")
    if len(r) != n_flows:
        raise NetworkError(f"{len(r)} rates for {n_flows} flows")
    if np.any(np.isnan(r)) or np.any(r < 0):
        raise NetworkError("all rates must be non-negative and not NaN")
    return r


def link_loads(
    n_links: int,
    flow_links,
    rates: Sequence[float],
) -> np.ndarray:
    """Aggregate per-link load implied by an allocation.

    ``rates`` is validated like capacities are: 1-D, one entry per
    flow, non-negative, NaN-free. Infinite rates (local flows, which
    traverse no links) contribute zero load.
    """
    A = _as_incidence(n_links, flow_links)
    r = _check_rates(rates, A.shape[1])
    finite = np.where(np.isfinite(r), r, 0.0)
    return A @ finite
