"""Managed transfers: retries, integrity, in-flight deduplication.

Globus semantics: a *stage* request makes a dataset present at a site.
The service picks the best replica source, drives the flow network,
re-tries integrity failures with a fresh attempt, registers the new
replica on success, and coalesces concurrent requests for the same
(dataset, destination) pair onto one wire transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.continuum.topology import Topology
from repro.datafabric.catalog import ReplicaCatalog
from repro.errors import DataFabricError
from repro.netsim.network import FlowNetwork
from repro.simcore.process import Signal, Timeout
from repro.simcore.simulation import Simulator
from repro.utils.rng import RngRegistry
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a completed stage request."""

    dataset: str
    src: str | None       # None when already present at the destination
    dst: str
    bytes_moved: float    # includes retried bytes
    attempts: int
    started: float
    finished: float

    @property
    def duration(self) -> float:
        return self.finished - self.started

    @property
    def was_local(self) -> bool:
        return self.src is None


class TransferService:
    """Reliable staging of datasets onto sites.

    Parameters
    ----------
    failure_prob:
        Per-attempt probability that a wire transfer fails its integrity
        check and must be retried (drawn from the ``"transfer-faults"``
        RNG stream, so runs are reproducible).
    max_attempts:
        Attempts before :class:`DataFabricError` is raised to the caller.
    """

    def __init__(
        self,
        sim: Simulator,
        network: FlowNetwork,
        catalog: ReplicaCatalog,
        *,
        failure_prob: float = 0.0,
        max_attempts: int = 3,
        rngs: RngRegistry | None = None,
        view=None,
    ):
        self.sim = sim
        self.network = network
        self.catalog = catalog
        # optional replicated-catalog view: when present, transfer
        # *sources* are resolved from the (possibly stale) control-plane
        # view instead of the authoritative catalog — destination
        # residency stays authoritative (a site knows its own disk)
        self.view = view
        self.topology: Topology = network.topology
        self.failure_prob = check_probability("failure_prob", failure_prob)
        if max_attempts < 1:
            raise DataFabricError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = int(max_attempts)
        self._rng = (rngs or RngRegistry(0)).stream("transfer-faults")
        self._inflight: dict[tuple[str, str], Signal] = {}
        # accounting
        self.total_requests = 0
        self.total_retries = 0
        self.total_bytes_wire = 0.0

    def stage(self, dataset_name: str, to_site: str) -> Signal:
        """Make ``dataset_name`` present at ``to_site``.

        Returns a signal firing with a :class:`TransferResult` (or
        failing with :class:`DataFabricError` after exhausted retries).
        Concurrent stages of the same dataset to the same site share one
        transfer.
        """
        self.total_requests += 1
        dataset = self.catalog.dataset(dataset_name)
        if to_site not in self.topology:
            raise DataFabricError(f"unknown destination site {to_site!r}")

        key = (dataset_name, to_site)
        existing = self._inflight.get(key)
        if existing is not None:
            return existing

        signal = self.sim.signal()
        if self.catalog.has_replica(dataset_name, to_site):
            result = TransferResult(
                dataset=dataset_name, src=None, dst=to_site,
                bytes_moved=0.0, attempts=0,
                started=self.sim.now, finished=self.sim.now,
            )
            self.sim._wakeup(0.0, signal.trigger, (result,))
            return signal

        self._inflight[key] = signal
        self.sim.process(
            self._stage_proc(dataset.name, to_site, signal),
            name=f"stage:{dataset_name}->{to_site}",
        )
        return signal

    def _pick_source(self, name: str, to_site: str) -> tuple[str, float]:
        """Resolve the wire source: through the replicated view (with
        staleness accounting and phantom-source penalties) when one is
        attached, else the authoritative nearest replica. Returns
        ``(site, extra_delay_s)``."""
        if self.view is not None:
            return self.view.transfer_source(name, to_site)
        src, _est = self.catalog.nearest_source(self.topology, name, to_site)
        return src, 0.0

    def _stage_proc(self, name: str, to_site: str, signal: Signal):
        started = self.sim.now
        dataset = self.catalog.dataset(name)
        bytes_moved = 0.0
        attempts = 0
        try:
            while True:
                attempts += 1
                src, penalty = self._pick_source(name, to_site)
                if penalty > 0:
                    # stale metadata sent us to a phantom replica; the
                    # puller discovered it and re-resolved — pay the
                    # extra metadata round before the real transfer
                    yield Timeout(penalty)
                yield self.network.transfer(src, to_site, dataset.size_bytes)
                bytes_moved += dataset.size_bytes
                self.total_bytes_wire += dataset.size_bytes
                if self.failure_prob == 0.0 or self._rng.random() >= self.failure_prob:
                    break
                self.total_retries += 1
                if attempts >= self.max_attempts:
                    raise DataFabricError(
                        f"staging {name!r} to {to_site!r} failed integrity "
                        f"check {attempts} times"
                    )
        except DataFabricError as exc:
            self._inflight.pop((name, to_site), None)
            signal.fail(exc)
            return
        self.catalog.add_replica(name, to_site, time=self.sim.now)
        self._inflight.pop((name, to_site), None)
        signal.trigger(
            TransferResult(
                dataset=name, src=src, dst=to_site,
                bytes_moved=bytes_moved, attempts=attempts,
                started=started, finished=self.sim.now,
            )
        )
