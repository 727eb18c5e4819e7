"""Request batching: trade per-request latency for throughput.

A :class:`Batcher` fronts one endpoint+function pair. Requests accumulate
until either ``max_batch`` are waiting or the oldest has waited
``max_wait_s``; the whole batch then runs as a single invocation whose
work is ``batch_overhead_work + n * work``. Inference serving uses exactly
this policy, and E4 sweeps its two knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaaSError
from repro.faas.endpoint import Endpoint, InvocationRecord
from repro.simcore.process import Signal
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class BatchPolicy:
    """Batching knobs. ``max_batch=1`` degenerates to pass-through."""

    max_batch: int = 8
    max_wait_s: float = 0.05

    def __post_init__(self):
        if self.max_batch < 1:
            raise FaaSError(f"max_batch must be >= 1, got {self.max_batch}")
        check_non_negative("max_wait_s", self.max_wait_s)


@dataclass
class BatchedRequest:
    """Per-request outcome returned by :meth:`Batcher.submit`."""

    submitted: float
    batch_size: int = 0
    dispatched: float = 0.0
    completed: float = 0.0
    record: InvocationRecord | None = None

    @property
    def latency(self) -> float:
        return self.completed - self.submitted

    @property
    def batch_wait(self) -> float:
        return self.dispatched - self.submitted


class Batcher:
    """Accumulate-and-dispatch front for one (endpoint, function) pair."""

    def __init__(self, endpoint: Endpoint, function: str, policy: BatchPolicy):
        self.endpoint = endpoint
        self.function = function
        self.policy = policy
        self.sim = endpoint.sim
        endpoint.registry.get(function)  # fail fast on unknown function
        self._pending: list[tuple[BatchedRequest, Signal]] = []
        self._flush_event = None
        # accounting
        self.batches_dispatched = 0
        self.requests_served = 0

    def submit(self) -> Signal:
        """Enqueue one request; fires with a :class:`BatchedRequest`."""
        request = BatchedRequest(submitted=self.sim.now)
        signal = self.sim.signal()
        self._pending.append((request, signal))
        if len(self._pending) >= self.policy.max_batch:
            self._flush()
        elif self._flush_event is None:
            self._flush_event = self.sim.schedule(
                self.policy.max_wait_s, self._on_timer
            )
        return signal

    def _on_timer(self) -> None:
        self._flush_event = None
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        if self._flush_event is not None:
            self.sim.cancel(self._flush_event)
            self._flush_event = None
        batch, self._pending = self._pending, []
        for request, _sig in batch:
            request.dispatched = self.sim.now
            request.batch_size = len(batch)
        self.batches_dispatched += 1
        done = self.endpoint.invoke(self.function, batched=len(batch))
        self.sim.process(self._await_batch(done, batch), name="batch-await")

    def _await_batch(self, done: Signal, batch):
        record: InvocationRecord = yield done
        for request, signal in batch:
            request.completed = self.sim.now
            request.record = record
            self.requests_served += 1
            signal.trigger(request)
