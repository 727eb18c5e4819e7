"""Bandwidth-sharing allocators.

:func:`max_min_fair_rates` implements progressive filling: repeatedly find
the most-contended link, give every flow through it an equal share of the
remaining capacity, freeze those flows, and continue. The result is the
unique max-min fair allocation — every flow is limited by at least one
saturated link on which it receives a maximal share.

:func:`equal_share_rates` is the naive alternative (each flow gets the
minimum of its links' equal splits, computed once). It can strand
capacity; it exists as the ablation baseline called out in DESIGN.md.

All allocators accept the flow set in two forms:

- a sequence of per-flow link-index lists (the original API, validated
  and converted to an incidence matrix internally), or
- a prebuilt ``(n_links, n_flows)`` 0/1 incidence matrix (numpy array).
  This is the fast path used by :class:`~repro.netsim.network.FlowNetwork`,
  which maintains a persistent incidence matrix across flow arrivals and
  departures so a reallocation does zero per-event matrix construction.
  Matrix entries are trusted to be 0/1 (only the shape is checked).

Both allocators also take ``weights``: column ``j`` then stands for
``weights[j]`` flows over the same links, and its rate is the rate of
each of them. The default is one flow per column. ``FlowNetwork``
always calls ``allocator(capacities, routes, weights)`` with one column
per live route and its flow count as weight. With whole-number weights
the result is bitwise the per-flow solve expanded to flows: link
counts are small integers, exact in float64 whatever the summation
order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import NetworkError


def _incidence(
    n_links: int, flow_links: Sequence[Sequence[int]]
) -> np.ndarray:
    """Build the link x flow 0/1 incidence matrix, validating indices."""
    n_flows = len(flow_links)
    A = np.zeros((n_links, n_flows))
    for f, links in enumerate(flow_links):
        for l in links:
            if not 0 <= l < n_links:
                raise NetworkError(f"flow {f} references unknown link {l}")
            A[l, f] = 1.0
    return A


def _as_incidence(n_links: int, flow_links) -> np.ndarray:
    """Accept either per-flow link lists or a prebuilt incidence matrix."""
    if isinstance(flow_links, np.ndarray):
        if flow_links.ndim != 2 or flow_links.shape[0] != n_links:
            raise NetworkError(
                f"incidence matrix shape {flow_links.shape} does not match "
                f"{n_links} links"
            )
        if not np.issubdtype(flow_links.dtype, np.floating):
            raise NetworkError(
                f"incidence matrix must be a float array, got dtype "
                f"{flow_links.dtype}"
            )
        return flow_links
    return _incidence(n_links, flow_links)


def _check_capacities(capacities) -> np.ndarray:
    cap = np.asarray(capacities, dtype=float)
    if cap.ndim != 1:
        raise NetworkError(
            f"capacities must be a 1-D sequence, got shape {cap.shape}"
        )
    if np.any(cap <= 0) or not np.all(np.isfinite(cap)):
        raise NetworkError("all link capacities must be positive and finite")
    return cap


def _check_rates(rates, n_flows: int) -> np.ndarray:
    """Validate a rate vector the way :func:`_check_capacities` validates
    capacities: 1-D, one entry per flow, no NaN, no negative entries
    (``inf`` is legal — it is the rate of a local flow)."""
    r = np.asarray(rates, dtype=float)
    if r.ndim != 1:
        raise NetworkError(f"rates must be a 1-D sequence, got shape {r.shape}")
    if len(r) != n_flows:
        raise NetworkError(f"{len(r)} rates for {n_flows} flows")
    if np.any(np.isnan(r)) or np.any(r < 0):
        raise NetworkError("all rates must be non-negative and not NaN")
    return r


def _as_weights(weights, n_cols: int) -> np.ndarray:
    """Flows per column. ``None`` means one each. An array is trusted
    like a prebuilt incidence matrix (only its shape is checked); a
    sequence is validated: every weight positive and finite."""
    if weights is None:
        return np.ones(n_cols)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_cols,):
        raise NetworkError(f"weights of shape {w.shape} for {n_cols} columns")
    if not isinstance(weights, np.ndarray) and not np.all(
            (w > 0) & (w < math.inf)):
        raise NetworkError("all weights must be positive and finite")
    return w


def max_min_fair_rates(
    capacities: Sequence[float], flow_links, weights=None
) -> np.ndarray:
    """Max-min fair rates for flows over capacitated links.

    Parameters
    ----------
    capacities:
        Per-link capacity (bytes/s), all positive.
    flow_links:
        For each flow, the indices of the links it traverses — or a
        prebuilt ``(n_links, n_flows)`` incidence matrix. A flow with no
        links (a local copy) gets infinite rate.
    weights:
        Flows per column (default: one each); see the module docstring.

    Returns
    -------
    numpy array of per-flow rates. The allocation satisfies the max-min
    property: each flow traverses at least one saturated link on which
    no other flow has a strictly larger rate.
    """
    cap = _check_capacities(capacities)
    A = _as_incidence(len(cap), flow_links)
    n_links, n_flows = A.shape
    w = _as_weights(weights, n_flows)
    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates

    # ``active`` holds each unfrozen column's weight (0 once frozen) so
    # per-level products need no dtype conversion; all link counts stay
    # exact small integers in float64 and are maintained incrementally
    # (counts -= level_counts equals a fresh A @ active exactly), which
    # keeps the allocation bit-identical no matter how many flows have
    # already been frozen.
    active = w.copy()
    local = A.sum(axis=0) == 0.0
    n_remaining = n_flows
    if local.any():
        rates[local] = math.inf
        active[local] = 0.0
        n_remaining -= int(local.sum())

    counts = A @ active
    remaining = cap.copy()
    # A link with no active flows can never be a bottleneck again; its
    # remaining capacity is patched to inf so the per-level division is
    # a plain vectorized divide (x/0 -> inf, never 0/0 -> nan) instead
    # of a masked one. Patched entries always yield share = inf, the
    # same value a masked divide would produce.
    remaining[counts == 0.0] = math.inf
    share = np.empty(n_links)
    scratch = np.empty(n_links)
    with np.errstate(divide="ignore"):
        while n_remaining > 0:
            np.divide(remaining, counts, out=share)
            l_star = share.argmin()
            level = share[l_star]
            # flows newly frozen at this level: active AND on the bottleneck
            cols = (active * A[l_star]).nonzero()[0]
            rates[cols] = level
            level_counts = A[:, cols] @ w[cols]
            np.multiply(level_counts, level, out=scratch)
            np.subtract(remaining, scratch, out=remaining)
            np.maximum(remaining, 0.0, out=remaining)
            active[cols] = 0.0
            counts -= level_counts
            remaining[counts == 0.0] = math.inf
            n_remaining -= len(cols)
    return rates


def equal_share_rates(
    capacities: Sequence[float], flow_links, weights=None
) -> np.ndarray:
    """Single-pass equal-split baseline (ablation).

    Each flow's rate is ``min over its links of capacity/flows-on-link``.
    Feasible but generally not Pareto-optimal: once a flow is limited by
    a remote bottleneck, its unused share elsewhere is wasted.
    ``weights`` counts the flows per column, as for
    :func:`max_min_fair_rates`.
    """
    cap = _check_capacities(capacities)
    A = _as_incidence(len(cap), flow_links)
    n_links, n_flows = A.shape
    w = _as_weights(weights, n_flows)
    rates = np.full(n_flows, math.inf)
    if n_flows == 0 or n_links == 0:
        return rates
    counts = A @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        per_link = np.where(counts > 0, cap / counts, math.inf)
    # Vectorized masked min over the links each flow traverses: links a
    # flow does not use contribute +inf, so flows with no links stay
    # inf. min() over the same value set is exact, so this is
    # bit-identical to the per-flow scalar loop it replaces.
    contrib = np.where(A > 0, per_link[:, None], math.inf)
    return contrib.min(axis=0)


def link_loads(
    n_links: int,
    flow_links,
    rates: Sequence[float],
) -> np.ndarray:
    """Aggregate per-link load implied by an allocation (for invariant
    checks: ``link_loads(...) <= capacities`` within tolerance).

    ``rates`` is validated like capacities are: 1-D, one entry per
    flow, non-negative, NaN-free. Infinite rates (local flows, which
    traverse no links) contribute zero load.
    """
    A = _as_incidence(n_links, flow_links)
    r = _check_rates(rates, A.shape[1])
    finite = np.where(np.isfinite(r), r, 0.0)
    return A @ finite
