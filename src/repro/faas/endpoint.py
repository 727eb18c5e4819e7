"""FaaS endpoints: worker queues + container lifecycle at one site."""

from __future__ import annotations

from dataclasses import dataclass

from repro.continuum.site import Site
from repro.errors import FaaSError
from repro.faas.container import ContainerModel, WarmPool
from repro.faas.function import FunctionDef, FunctionRegistry
from repro.faas.serialization import SerializationModel
from repro.simcore.process import Signal, Timeout
from repro.simcore.resources import Resource
from repro.simcore.simulation import Simulator


@dataclass
class InvocationRecord:
    """Timing breakdown of one invocation at an endpoint.

    ``submitted`` -> ``started_wait`` (enqueue) -> worker granted ->
    container ready -> execution -> ``finished``. Network legs are
    accounted by the fabric, not here.
    """

    function: str
    endpoint: str
    submitted: float
    queue_time: float = 0.0
    startup_time: float = 0.0
    serialize_time: float = 0.0
    exec_time: float = 0.0
    finished: float = 0.0
    cold_start: bool = False
    batched: int = 1

    @property
    def service_time(self) -> float:
        """Endpoint-side latency: everything but the network."""
        return self.finished - self.submitted


class Endpoint:
    """One site's function-serving agent.

    ``workers`` parallel slots execute functions; each execution needs a
    container, reused warm when possible. The endpoint resolves function
    names against a shared :class:`FunctionRegistry`.
    """

    def __init__(
        self,
        sim: Simulator,
        site: Site,
        registry: FunctionRegistry,
        *,
        workers: int | None = None,
        containers: ContainerModel | None = None,
        serialization: SerializationModel | None = None,
        name: str | None = None,
    ):
        self.sim = sim
        self.site = site
        self.registry = registry
        self.name = name or f"ep-{site.name}"
        n_workers = site.slots if workers is None else int(workers)
        if n_workers < 1:
            raise FaaSError(f"endpoint needs >= 1 worker, got {n_workers}")
        self.workers = Resource(sim, n_workers, name=f"{self.name}.workers")
        self.containers = containers or ContainerModel()
        self.serialization = serialization or SerializationModel()
        self._warm: dict[str, WarmPool] = {}
        self._activity_waiters: list[Signal] = []
        # accounting
        self.records: list[InvocationRecord] = []
        self.cold_starts = 0
        self.warm_starts = 0
        self.busy_seconds = 0.0

    # -- introspection ------------------------------------------------------------
    def wait_for_activity(self) -> Signal:
        """Signal that fires at the next invocation — lets controllers
        (autoscalers) park event-free while the endpoint is idle."""
        signal = self.sim.signal()
        self._activity_waiters.append(signal)
        return signal

    def estimate_service_time(self, function: str, assume_warm: bool = True) -> float:
        """Unloaded endpoint-side latency estimate for planners."""
        fn = self.registry.get(function)
        startup = (
            self.containers.warm_start_s if assume_warm
            else self.containers.cold_start_s
        )
        ser = self.serialization.round_trip(fn.request_bytes, fn.response_bytes)
        return startup + ser + self.site.service_time(fn.work, kind=fn.kind)

    # -- invocation -----------------------------------------------------------------
    def invoke(self, function: str, *, batched: int = 1,
               work_override: float | None = None) -> Signal:
        """Execute ``function`` once (or as a batch of ``batched``
        requests); fires with an :class:`InvocationRecord`."""
        fn = self.registry.get(function)
        if batched < 1:
            raise FaaSError(f"batched must be >= 1, got {batched}")
        signal = self.sim.signal()
        self.sim.process(
            self._invoke_proc(fn, batched, work_override, signal),
            name=f"{self.name}:{function}",
        )
        waiters, self._activity_waiters = self._activity_waiters, []
        for waiter in waiters:
            waiter.trigger()
        return signal

    def _invoke_proc(self, fn: FunctionDef, batched: int,
                     work_override: float | None, signal: Signal):
        record = InvocationRecord(
            function=fn.name, endpoint=self.name,
            submitted=self.sim.now, batched=batched,
        )
        req = self.workers.request()
        yield req
        record.queue_time = self.sim.now - record.submitted
        try:
            pool = self._warm.get(fn.name)
            if pool is None:
                pool = self._warm[fn.name] = WarmPool(self.containers)
            if pool.take_warm(self.sim.now):
                record.cold_start = False
                record.startup_time = self.containers.warm_start_s
                self.warm_starts += 1
            else:
                record.cold_start = True
                record.startup_time = self.containers.cold_start_s
                self.cold_starts += 1
            if record.startup_time > 0:
                yield Timeout(record.startup_time)

            record.serialize_time = self.serialization.round_trip(
                fn.request_bytes * batched, fn.response_bytes * batched
            )
            if record.serialize_time > 0:
                yield Timeout(record.serialize_time)

            if work_override is not None:
                total_work = work_override
            else:
                total_work = fn.work * batched
                if batched > 1:
                    total_work += fn.batch_overhead_work
            record.exec_time = self.site.service_time(total_work, kind=fn.kind)
            if record.exec_time > 0:
                yield Timeout(record.exec_time)

            pool.put_warm(self.sim.now)
        finally:
            self.workers.release(req)
        record.finished = self.sim.now
        self.records.append(record)
        self.busy_seconds += record.startup_time + record.serialize_time + record.exec_time
        signal.trigger(record)
