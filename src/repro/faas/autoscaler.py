"""Elastic endpoints: queue-driven worker autoscaling.

Serverless platforms grow and shrink worker pools with demand. The
:class:`Autoscaler` polls one endpoint's queue on a fixed interval and
applies the classic threshold policy:

- queue length > ``scale_up_at``      -> add ``step`` workers (after a
  ``provision_delay_s`` modeling VM/container spin-up),
- queue empty and *all* workers idle  -> remove ``step`` workers,

bounded by ``[min_workers, max_workers]``. Scale-down requires the pool
to be fully drained — an empty queue alone is not proof of idleness,
and shrinking while work is still running causes capacity flapping
under steady load. Scaling down never preempts running work (the
resource drains naturally). E4's endpoint model plus this loop
reproduces the elasticity half of the funcX story.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaaSError
from repro.faas.endpoint import Endpoint
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.simcore.process import Timeout
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ScalingPolicy:
    """Threshold-scaling knobs."""

    min_workers: int = 1
    max_workers: int = 16
    scale_up_at: int = 2        # queued requests that trigger growth
    step: int = 1
    interval_s: float = 1.0
    provision_delay_s: float = 5.0

    def __post_init__(self):
        check_positive("min_workers", self.min_workers)
        check_positive("step", self.step)
        check_positive("interval_s", self.interval_s)
        check_non_negative("provision_delay_s", self.provision_delay_s)
        check_non_negative("scale_up_at", self.scale_up_at)
        if self.max_workers < self.min_workers:
            raise FaaSError(
                f"max_workers ({self.max_workers}) < min_workers "
                f"({self.min_workers})"
            )


class Autoscaler:
    """Threshold autoscaler bound to one endpoint.

    Call :meth:`start` once; the control loop runs until the simulation
    drains or :meth:`stop` is called. ``scaling_events`` records every
    capacity change as ``(time, old, new)``.
    """

    def __init__(self, endpoint: Endpoint, policy: ScalingPolicy | None = None,
                 *, tracer: Tracer | None = None):
        self.endpoint = endpoint
        self.policy = policy or ScalingPolicy()
        self.sim = endpoint.sim
        self.tracer = (tracer if tracer is not None
                       else endpoint.tracer or NULL_TRACER)
        if endpoint.workers.capacity < self.policy.min_workers:
            raise FaaSError(
                "endpoint starts below the policy's min_workers"
            )
        self.scaling_events: list[tuple[float, int, int]] = []
        self._stopped = False
        self._provisioning = 0
        self._proc = None

    # -- control ------------------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None:
            raise FaaSError("autoscaler already started")
        self._proc = self.sim.process(self._loop(), name="autoscaler")

    def stop(self) -> None:
        self._stopped = True

    # -- the loop --------------------------------------------------------------------
    def _loop(self):
        policy = self.policy
        workers = self.endpoint.workers
        while not self._stopped:
            if (
                workers.queue_length == 0
                and workers.in_use == 0
                and workers.capacity == policy.min_workers
                and self._provisioning == 0
            ):
                # Idle at the floor: park event-free until the next
                # invocation. (A pending Timeout would keep the whole
                # simulation alive forever; a Signal wait does not.)
                yield self.endpoint.wait_for_activity()
                continue
            yield Timeout(policy.interval_s)
            if self._stopped:
                return
            queue = workers.queue_length
            planned = workers.capacity + self._provisioning
            if queue >= policy.scale_up_at and planned < policy.max_workers:
                step = min(policy.step, policy.max_workers - planned)
                self._provisioning += step
                self.sim.process(self._provision(step), name="provision")
            elif (
                queue == 0
                and workers.in_use == 0
                and workers.capacity > policy.min_workers
                and self._provisioning == 0
            ):
                step = min(policy.step, workers.capacity - policy.min_workers)
                self._resize(workers.capacity - step)

    def _provision(self, step: int):
        span = self.tracer.begin("provision", "scaling", step=step,
                                 endpoint=self.endpoint.name)
        if self.policy.provision_delay_s > 0:
            yield Timeout(self.policy.provision_delay_s)
        else:
            yield Timeout(0.0)
        self._provisioning -= step
        self.tracer.end(span)
        if not self._stopped:
            self._resize(self.endpoint.workers.capacity + step)

    def _resize(self, new_capacity: int) -> None:
        old = self.endpoint.workers.capacity
        if new_capacity == old:
            return
        self.endpoint.workers.set_capacity(new_capacity)
        self.scaling_events.append((self.sim.now, old, new_capacity))
        self.tracer.instant("scale", "scaling", endpoint=self.endpoint.name,
                            old=old, new=new_capacity)
