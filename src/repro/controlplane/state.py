"""The control-plane state machine: a catalog + registry image.

Each control node applies its committed log prefix to one
:class:`ControlState`. It *is* a
:class:`~repro.datafabric.catalog.ReplicaCatalog` — the read API,
insertion-order iteration and strict ``<`` first-wins
``nearest_source`` scan are the catalog's own — so a quorum read and a
single-copy catalog read are *differentially testable*: applied over
the same mutation sequence they must agree bit-for-bit. What the class
adds is what the log needs: :meth:`ControlState.apply`, the applied
index, the endpoint registry, and the snapshot/fingerprint documents.

``version`` counts replica mutations in the applied prefix. Because
committed prefixes are identical across nodes (Raft log matching), two
nodes at the same applied index report the same version — which makes
the version safe to key :class:`~repro.core.cost.CostModel` caches even
when reads migrate between replicas.
"""

from __future__ import annotations

from repro.controlplane.log import Command
from repro.datafabric.catalog import ReplicaCatalog
from repro.datafabric.dataset import Dataset
from repro.errors import ControlPlaneError


class ControlState(ReplicaCatalog):
    """Applied image of the replicated catalog/registry log."""

    def __init__(self) -> None:
        super().__init__()
        self._endpoints: dict[str, bool] = {}
        self._entries = 0
        self.applied_index = 0

    # -- log application ----------------------------------------------------------
    def apply(self, command: Command, index: int) -> None:
        """Apply the committed entry at ``index``. Unlike the catalog's
        mutators, ``register`` is first-wins and dropping an absent
        replica still counts as a replica change; both keep every
        node's image a pure function of its log."""
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
                self.register(Dataset(name, float(size_bytes), kind))
            return
        if op in ("add_replica", "drop_replica"):
            name, site = args[0], args[1]
            reps = self._replicas.get(name)
            if reps is None:
                raise ControlPlaneError(
                    f"{op} for unregistered dataset {name!r}")
            if op == "add_replica":
                if site not in reps:
                    self._entries += 1
                reps[site] = float(args[2])
            elif reps.pop(site, None) is not None:
                self._entries -= 1
            self._bump(name)
            return
        if op in ("endpoint_up", "endpoint_down"):
            if args[0] not in self._endpoints:
                self._entries += 1
            self._endpoints[args[0]] = op == "endpoint_up"
            return
        raise ControlPlaneError(f"unknown command op {op!r}")

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
            state.register(Dataset(name, float(size_bytes), kind))
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
