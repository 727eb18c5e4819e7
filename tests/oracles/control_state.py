"""Frozen control-plane state machine: a reference image for the tests.

This is ``ControlState`` as it shipped while it kept its own copy of the
replica catalog's read API, before it became a
:class:`~repro.datafabric.catalog.ReplicaCatalog` subclass. It is one
side of the state-machine differential test: fed the same command
sequence, the production class must agree with it on every read,
counter and snapshot document.

Do not "improve" this module: its value is staying what shipped.
"""

from __future__ import annotations

from repro.continuum.topology import Topology
from repro.controlplane.log import Command
from repro.datafabric.dataset import Dataset, Replica
from repro.errors import ControlPlaneError, DataFabricError


class ControlState:
    """Applied image of the replicated catalog/registry log."""

    def __init__(self) -> None:
        self._datasets: dict[str, Dataset] = {}
        self._replicas: dict[str, dict[str, float]] = {}
        self._version = 0
        self._dataset_versions: dict[str, int] = {}
        self._endpoints: dict[str, bool] = {}
        self._entries = 0
        self.applied_index = 0

    # -- log application ----------------------------------------------------------
    def apply(self, command: Command, index: int) -> None:
        if index != self.applied_index + 1:
            raise ControlPlaneError(
                f"apply out of order: index {index} after {self.applied_index}"
            )
        self.applied_index = index
        op, args = command.op, command.args
        if op == "noop":
            return
        if op == "register":
            name, size_bytes, kind = args
            if name not in self._datasets:
                self._entries += 3
            self._datasets.setdefault(
                name, Dataset(name, float(size_bytes), kind)
            )
            self._replicas.setdefault(name, {})
            self._dataset_versions.setdefault(name, 0)
            return
        if op == "add_replica":
            name, site, created_at = args
            if name not in self._datasets:
                raise ControlPlaneError(
                    f"add_replica for unregistered dataset {name!r}"
                )
            reps = self._replicas[name]
            if site not in reps:
                self._entries += 1
            reps[site] = float(created_at)
            self._bump(name)
            return
        if op == "drop_replica":
            name, site = args
            if name not in self._datasets:
                raise ControlPlaneError(
                    f"drop_replica for unregistered dataset {name!r}"
                )
            if self._replicas[name].pop(site, None) is not None:
                self._entries -= 1
            self._bump(name)
            return
        if op in ("endpoint_up", "endpoint_down"):
            if args[0] not in self._endpoints:
                self._entries += 1
            self._endpoints[args[0]] = op == "endpoint_up"
            return
        raise ControlPlaneError(f"unknown command op {op!r}")

    def _bump(self, name: str) -> None:
        self._version += 1
        self._dataset_versions[name] = self._dataset_versions.get(name, 0) + 1

    # -- catalog read API (mirrors ReplicaCatalog) --------------------------------
    @property
    def version(self) -> int:
        return self._version

    def dataset_version(self, name: str) -> int:
        return self._dataset_versions.get(name, 0)

    def dataset(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise DataFabricError(f"unknown dataset {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def locations(self, name: str) -> list[str]:
        self.dataset(name)
        return list(self._replicas.get(name, {}))

    def has_replica(self, name: str, site: str) -> bool:
        return site in self._replicas.get(name, {})

    def replica(self, name: str, site: str) -> Replica:
        created = self._replicas.get(name, {}).get(site)
        if created is None:
            raise DataFabricError(f"no replica of {name!r} at {site!r}")
        return Replica(self.dataset(name), site, created_at=created)

    def nearest_source(
        self, topology: Topology, name: str, to_site: str
    ) -> tuple[str, float]:
        """Identical scan to ``ReplicaCatalog.nearest_source``: insertion
        order, strict ``<``, first winner kept."""
        dataset = self.dataset(name)
        sources = self.locations(name)
        if not sources:
            raise DataFabricError(f"dataset {name!r} has no replicas")
        best_site, best_time = None, None
        for src in sources:
            est = topology.path_info(src, to_site).transfer_time(dataset.size_bytes)
            if best_time is None or est < best_time:
                best_site, best_time = src, est
        return best_site, best_time

    # -- endpoint registry --------------------------------------------------------
    def endpoint_known(self, site: str) -> bool:
        return site in self._endpoints

    def endpoint_live(self, site: str) -> bool:
        """Liveness per this replica's view; unknown endpoints default to
        live (the registry only records observed transitions)."""
        return self._endpoints.get(site, True)

    @property
    def down_endpoints(self) -> list[str]:
        return [s for s, up in self._endpoints.items() if not up]

    # -- snapshot / convergence ---------------------------------------------------
    @property
    def entries(self) -> int:
        """Rows of the :meth:`to_snapshot` document (one per dataset in
        each of its three tables, one per replica and per endpoint),
        kept as mutations apply so a snapshot chain can be sized
        against its image in O(1)."""
        return self._entries

    def to_snapshot(self) -> dict:
        return {
            "applied_index": self.applied_index,
            "version": self._version,
            "datasets": [
                (d.name, d.size_bytes, d.kind) for d in self._datasets.values()
            ],
            "replicas": [
                (name, tuple(reps.items()))
                for name, reps in self._replicas.items()
            ],
            "dataset_versions": tuple(self._dataset_versions.items()),
            "endpoints": tuple(self._endpoints.items()),
        }

    @classmethod
    def from_snapshot(cls, doc: dict) -> "ControlState":
        state = cls()
        state.applied_index = int(doc["applied_index"])
        state._version = int(doc["version"])
        for name, size_bytes, kind in doc["datasets"]:
            state._datasets[name] = Dataset(name, float(size_bytes), kind)
            state._replicas.setdefault(name, {})
        for name, reps in doc["replicas"]:
            state._replicas[name] = {site: float(t) for site, t in reps}
        state._dataset_versions = dict(doc["dataset_versions"])
        state._endpoints = dict(doc["endpoints"])
        state._entries = (
            len(state._datasets) + len(state._replicas)
            + len(state._dataset_versions) + len(state._endpoints)
            + sum(len(reps) for reps in state._replicas.values()))
        return state

    def fingerprint(self) -> tuple:
        """Order-sensitive identity of the applied image; equal
        fingerprints mean byte-equal catalog views (used by the
        post-heal convergence tests)."""
        return (
            self.applied_index,
            self._version,
            tuple(self._datasets.items()),
            tuple(
                (name, tuple(reps.items()))
                for name, reps in self._replicas.items()
            ),
            tuple(self._dataset_versions.items()),
            tuple(self._endpoints.items()),
        )
