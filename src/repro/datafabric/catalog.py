"""Replica catalog: which datasets live where."""

from __future__ import annotations

from repro.continuum.topology import Topology
from repro.datafabric.dataset import Dataset, Replica
from repro.errors import DataFabricError


def nearest_of(topology: Topology, dataset: Dataset, sources: list[str],
               to_site: str) -> tuple[str, float]:
    """The source with the lowest unloaded transfer time of ``dataset``
    to ``to_site``: scanned in order, strict ``<``, so the first of tied
    sources wins. Returns ``(site, estimated_seconds)``.

    Raises :class:`DataFabricError` when ``sources`` is empty.
    """
    if not sources:
        raise DataFabricError(f"dataset {dataset.name!r} has no replicas")
    best_site, best_time = None, None
    for src in sources:
        est = topology.path_info(src, to_site).transfer_time(dataset.size_bytes)
        if best_time is None or est < best_time:
            best_site, best_time = src, est
    return best_site, best_time


class ReplicaCatalog:
    """Authoritative mapping dataset -> {site: creation time}.

    The catalog is the source of truth for placement decisions: both the
    transfer service (pick a source) and data-gravity scheduling (pick a
    compute site near the bytes) query it.

    A dataset gets its replica map and version counter when it is
    registered, so reads never add keys: the replicated control plane's
    applied images (:class:`~repro.controlplane.state.ControlState`)
    must stay equal across nodes however often each is read.
    """

    def __init__(self) -> None:
        self._datasets: dict[str, Dataset] = {}
        self._replicas: dict[str, dict[str, float]] = {}
        self._version = 0
        self._dataset_versions: dict[str, int] = {}

    @property
    def version(self) -> int:
        """Monotone counter bumped on every replica change — lets cost
        models cache nearest-source lookups safely."""
        return self._version

    def dataset_version(self, name: str) -> int:
        """Per-dataset replica-change counter: finer-grained than
        :attr:`version`, so caches of one dataset's placement survive
        other datasets being staged around the continuum."""
        return self._dataset_versions.get(name, 0)

    def _bump(self, name: str) -> None:
        """Count one replica change of ``name``."""
        self._version += 1
        self._dataset_versions[name] += 1

    # -- datasets ---------------------------------------------------------------
    def register(self, dataset: Dataset) -> Dataset:
        """Register a dataset definition (idempotent if identical)."""
        existing = self._datasets.get(dataset.name)
        if existing is not None and existing != dataset:
            raise DataFabricError(
                f"dataset {dataset.name!r} already registered with different "
                f"definition"
            )
        self._datasets[dataset.name] = dataset
        if existing is None:
            self._replicas[dataset.name] = {}
            self._dataset_versions[dataset.name] = 0
        return dataset

    def dataset(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise DataFabricError(f"unknown dataset {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    # -- replicas -----------------------------------------------------------------
    def add_replica(self, name: str, site: str, time: float = 0.0) -> Replica:
        dataset = self.dataset(name)
        self._replicas[name][site] = time
        self._bump(name)
        return Replica(dataset, site, created_at=time)

    def drop_replica(self, name: str, site: str) -> None:
        self.dataset(name)
        if self._replicas[name].pop(site, None) is None:
            raise DataFabricError(f"no replica of {name!r} at {site!r}")
        self._bump(name)

    def locations(self, name: str) -> list[str]:
        """Sites currently holding a replica (may be empty)."""
        self.dataset(name)
        return list(self._replicas[name])

    def has_replica(self, name: str, site: str) -> bool:
        return site in self._replicas.get(name, {})

    def nearest_source(
        self, topology: Topology, name: str, to_site: str
    ) -> tuple[str, float]:
        """Replica site with the lowest unloaded transfer time to
        ``to_site`` (see :func:`nearest_of`).

        Raises :class:`DataFabricError` when the dataset has no replica.
        """
        return nearest_of(topology, self.dataset(name), self.locations(name),
                          to_site)
