"""Edge-AI inference workloads (the DLHub/model-serving regime).

Small requests, tight deadlines, accelerator-specialized work — the
workload where placement is dominated by latency, not bandwidth (E5).
:func:`request_stream` draws the timed request stream that E5 replays
against the FaaS fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.streaming import poisson_arrivals


@dataclass(frozen=True)
class InferenceRequest:
    """One timed request for the FaaS fabric experiments."""

    arrival_s: float
    request_bytes: float
    deadline_s: float


def request_stream(
    rate_per_s: float,
    horizon_s: float,
    *,
    request_bytes: float = 2e5,
    deadline_s: float = 0.5,
    rng: np.random.Generator,
) -> list[InferenceRequest]:
    """Poisson stream of inference requests."""
    times = poisson_arrivals(rate_per_s, horizon_s, rng)
    return [
        InferenceRequest(float(t), request_bytes, deadline_s) for t in times
    ]
