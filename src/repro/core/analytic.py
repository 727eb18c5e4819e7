"""The continuum calculus: closed-form offload analysis.

Gilder's argument, quantified. A task of ``work`` units sits with its
``data_bytes`` of input at a local site. Should it run there, or should
the data ship to a remote site that is faster (or specialized)?

- local time:  ``T_l = work / s_local``
- remote time: ``T_r = L_up + D/B + work / s_remote + L_down``

(the result is assumed small relative to the input — the common analysis
regime; pass ``result_bytes`` to include the return leg's serialization).

Offloading wins iff ``T_r < T_l``. The *crossover bandwidth* ``B*`` is
where they tie: below it locality wins regardless of remote speed; above
it the machine "disintegrates across the net". E1 checks the simulator
reproduces this curve; E10 sweeps the specialization factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class OffloadDecision:
    """Outcome of a local-vs-remote analysis."""

    local_time_s: float
    remote_time_s: float
    crossover_bandwidth_Bps: float | None   # None when offload never wins
    speedup: float                          # local / remote (>1 => offload)

    @property
    def offload_wins(self) -> bool:
        return self.remote_time_s < self.local_time_s


def remote_time(
    work: float,
    data_bytes: float,
    remote_speed: float,
    bandwidth_Bps: float,
    latency_s: float = 0.0,
    result_bytes: float = 0.0,
) -> float:
    """End-to-end time for the ship-and-compute option."""
    check_non_negative("work", work)
    check_non_negative("data_bytes", data_bytes)
    check_positive("remote_speed", remote_speed)
    check_positive("bandwidth_Bps", bandwidth_Bps)
    check_non_negative("latency_s", latency_s)
    check_non_negative("result_bytes", result_bytes)
    transfer = (data_bytes + result_bytes) / bandwidth_Bps
    # one latency per direction (request with data; response with result)
    return 2.0 * latency_s + transfer + work / remote_speed


def local_time(work: float, local_speed: float) -> float:
    """Time for computing in place."""
    check_non_negative("work", work)
    check_positive("local_speed", local_speed)
    return work / local_speed


def crossover_bandwidth(
    work: float,
    data_bytes: float,
    local_speed: float,
    remote_speed: float,
    latency_s: float = 0.0,
    result_bytes: float = 0.0,
) -> float | None:
    """Bandwidth ``B*`` above which offloading wins, or None if it never
    does (remote not faster enough to cover the latency floor)."""
    t_local = local_time(work, local_speed)
    check_positive("remote_speed", remote_speed)
    compute_gain = t_local - work / remote_speed - 2.0 * latency_s
    payload = data_bytes + result_bytes
    if compute_gain <= 0:
        return None
    if payload == 0:
        return 0.0  # any connectivity at all suffices
    return payload / compute_gain


def offload_analysis(
    work: float,
    data_bytes: float,
    local_speed: float,
    remote_speed: float,
    bandwidth_Bps: float,
    latency_s: float = 0.0,
    result_bytes: float = 0.0,
) -> OffloadDecision:
    """Complete local-vs-remote comparison at a given bandwidth."""
    t_local = local_time(work, local_speed)
    t_remote = remote_time(work, data_bytes, remote_speed, bandwidth_Bps,
                           latency_s, result_bytes)
    speedup = t_local / t_remote if t_remote > 0 else math.inf
    return OffloadDecision(
        local_time_s=t_local,
        remote_time_s=t_remote,
        crossover_bandwidth_Bps=crossover_bandwidth(
            work, data_bytes, local_speed, remote_speed, latency_s,
            result_bytes,
        ),
        speedup=speedup,
    )
