"""Cache-aware reads: the staging layer experiments exercise.

:class:`StagedReader` gives each site an optional cache and answers
``read(dataset, at_site)`` requests: cache hit -> free; miss -> stage the
bytes over the network (via :class:`TransferService`), then admit into the
cache. Because staged replicas are also registered in the catalog,
caching at a fog site shortens *later* transfers for its whole subtree —
the effect E6 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datafabric.cache import Cache
from repro.datafabric.transfer import TransferResult, TransferService
from repro.errors import DataFabricError
from repro.simcore.process import Signal


@dataclass(frozen=True)
class ReadResult:
    """Outcome of one staged read."""

    dataset: str
    site: str
    cache_hit: bool
    bytes_from_network: float
    latency_s: float


class StagedReader:
    """Per-site cached access to the data fabric."""

    def __init__(self, transfers: TransferService):
        self.transfers = transfers
        self.sim = transfers.sim
        self._caches: dict[str, Cache] = {}
        # stats
        self.reads = 0
        self.network_bytes = 0.0

    def attach_cache(self, site: str, cache: Cache) -> Cache:
        if site not in self.transfers.topology:
            raise DataFabricError(f"unknown site {site!r}")
        if site in self._caches:
            raise DataFabricError(f"site {site!r} already has a cache")
        self._caches[site] = cache
        return cache

    def cache_at(self, site: str) -> Cache | None:
        return self._caches.get(site)

    def emit_metrics(self, registry) -> None:
        """Re-emit read/transfer totals plus every attached cache's
        stats through a metrics registry (no-op when disabled)."""
        registry.emit((
            ("datafabric_reads_total", "Staged reads issued", self.reads),
            ("datafabric_network_bytes_total",
             "Bytes staged over the network", self.network_bytes),
        ))
        for site in sorted(self._caches):
            self._caches[site].emit_metrics(registry, site=site)

    def read(self, dataset_name: str, at_site: str) -> Signal:
        """Make the dataset readable at ``at_site``; fires with
        :class:`ReadResult`."""
        self.reads += 1
        self.transfers.catalog.dataset(dataset_name)  # fail fast when unknown
        signal = self.sim.signal()
        self.sim.process(
            self._read_proc(dataset_name, at_site, signal),
            name=f"read:{dataset_name}@{at_site}",
        )
        return signal

    def _read_proc(self, name: str, site: str, signal: Signal):
        start = self.sim.now
        cache = self._caches.get(site)
        dataset = self.transfers.catalog.dataset(name)
        if cache is not None and cache.lookup(name):
            signal.trigger(
                ReadResult(name, site, cache_hit=True,
                           bytes_from_network=0.0, latency_s=0.0)
            )
            return
        # Miss (or uncached site): pull the bytes in.
        try:
            result: TransferResult = yield self.transfers.stage(name, site)
        except DataFabricError as exc:
            signal.fail(exc)
            return
        self.network_bytes += result.bytes_moved
        if cache is not None:
            evicted_before = cache.resident
            if cache.admit(dataset):
                # Evicted datasets are no longer guaranteed present at the
                # site; drop their catalog replicas so later placement
                # decisions don't count on them.
                for gone in set(evicted_before) - set(cache.resident):
                    if self.transfers.catalog.has_replica(gone, site):
                        self.transfers.catalog.drop_replica(gone, site)
        signal.trigger(
            ReadResult(
                name, site, cache_hit=False,
                bytes_from_network=result.bytes_moved,
                latency_s=self.sim.now - start,
            )
        )
