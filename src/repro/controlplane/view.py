"""Catalog views over the replicated control plane.

Two adapters connect the consensus machinery to the layers that consume
metadata:

- :class:`MirroredCatalog` — a drop-in :class:`ReplicaCatalog` that
  *also* submits every replica mutation to the control plane. The bare
  catalog stays the physical ground truth (a site always knows what is
  on its own disk); the plane is the federation's lagged metadata
  service replicating that truth.
- :class:`ReplicatedCatalogView` — the catalog *read* API against the
  image the session's last placement read resolved: the physical
  catalog itself when the read linearized at a leased or
  quorum-confirmed leader (the leader serializes every mutation the
  moment it physically happens, so its image *is* ground truth), or a
  follower's lagged applied state otherwise. Both images are
  :class:`ReplicaCatalog` instances, so the view picks one in one place
  and adds only what a lagged image needs: the origin fallback for
  datasets it has not heard of, and the staleness accounting — every
  transfer-source decision is compared against the physical catalog,
  and divergence is booked as a misplacement (plus wasted bytes when
  the stale choice is strictly slower). :class:`CostModel`, placement
  strategies, and the transfer service all plan against this view.
"""

from __future__ import annotations

from repro.continuum.topology import Topology
from repro.controlplane.cluster import ControlPlane
from repro.controlplane.log import Command
from repro.controlplane.session import ControlPlaneSession
from repro.datafabric.catalog import ReplicaCatalog, nearest_of
from repro.datafabric.dataset import Dataset, Replica
from repro.errors import DataFabricError


class MirroredCatalog(ReplicaCatalog):
    """Authoritative catalog that mirrors mutations into the plane.

    ``register`` calls made before the run starts are *bootstrapped*
    (pre-replicated, no lag): the federation converged on the initial
    dataset definitions long ago. Replica add/drop during the run are
    real replicated writes and pay commit latency before remote control
    sites observe them.
    """

    def __init__(self, plane: ControlPlane):
        super().__init__()
        self.plane = plane
        self._clock = lambda: 0.0

    def bind_clock(self, clock) -> None:
        """Attach the simulation clock (called once the run owns one)."""
        self._clock = clock

    def register(self, dataset: Dataset) -> Dataset:
        out = super().register(dataset)
        self._mirror(Command(
            "register", (dataset.name, dataset.size_bytes, dataset.kind)))
        return out

    def add_replica(self, name: str, site: str, time: float = 0.0) -> Replica:
        replica = super().add_replica(name, site, time)
        self.plane.submit(
            Command("add_replica", (name, site, time)), self._clock())
        return replica

    def drop_replica(self, name: str, site: str) -> None:
        super().drop_replica(name, site)
        self.plane.submit(
            Command("drop_replica", (name, site)), self._clock())

    def bootstrap_replica(self, name: str, site: str,
                          time: float = 0.0) -> Replica:
        """Seed replica whose metadata is already federation-wide: a
        free pre-replicated log entry before the plane starts, a normal
        replicated write afterwards (late-arriving stream jobs)."""
        replica = super().add_replica(name, site, time)
        self._mirror(Command("add_replica", (name, site, time)))
        return replica

    def _mirror(self, command: Command) -> None:
        if self.plane.started:
            self.plane.submit(command, self._clock())
        else:
            self.plane.bootstrap([command])

    def endpoint_up(self, site: str) -> None:
        self.plane.submit(Command("endpoint_up", (site,)), self._clock())

    def endpoint_down(self, site: str) -> None:
        self.plane.submit(Command("endpoint_down", (site,)), self._clock())


class ReplicatedCatalogView:
    """The catalog as the control plane currently believes it to be."""

    def __init__(self, session: ControlPlaneSession,
                 authoritative: ReplicaCatalog, topology: Topology):
        self.session = session
        self.authoritative = authoritative
        self.topology = topology
        self.stats = session.stats

    @property
    def _catalog(self) -> ReplicaCatalog:
        """The image reads resolve against: the physical catalog after
        a linearized read, else the pinned follower state."""
        session = self.session
        if session.pinned_truth:
            return self.authoritative
        return session.current_state()

    # -- read API (CostModel / strategies) ---------------------------------------
    @property
    def version(self) -> int:
        return self._catalog.version

    def dataset_version(self, name: str) -> int:
        return self._catalog.dataset_version(name)

    def dataset(self, name: str) -> Dataset:
        catalog = self._catalog
        if name in catalog:
            return catalog.dataset(name)
        return self.authoritative.dataset(name)

    def locations(self, name: str) -> list[str]:
        """Replica sites per the view. When a follower view knows
        *none* (the mutation hasn't replicated yet) planning falls back
        to the dataset's **origin** replica only — the one location the
        scheduler knows out-of-band from the producing task's
        completion event. It does NOT get the full physical replica
        set: closer staged copies the control plane hasn't told it
        about stay invisible. Counted as a fallback read."""
        catalog = self._catalog
        locs = catalog.locations(name) if name in catalog else []
        if locs:
            return locs
        origin = self._origin(name)
        if origin is not None:
            self.stats.fallback_reads += 1
            return [origin]
        return []

    def _origin(self, name: str) -> str | None:
        """First-created authoritative replica (insertion order)."""
        if name not in self.authoritative:
            return None
        auth_locs = self.authoritative.locations(name)
        return auth_locs[0] if auth_locs else None

    def has_replica(self, name: str, site: str) -> bool:
        return self._catalog.has_replica(name, site)

    def nearest_source(self, topology: Topology, name: str,
                       to_site: str) -> tuple[str, float]:
        sources = self.locations(name)
        return nearest_of(topology, self.dataset(name), sources, to_site)

    # -- transfer-source resolution with staleness accounting ---------------------
    def transfer_source(self, name: str, to_site: str) -> tuple[str, float]:
        """Pick the wire source for staging ``name`` to ``to_site``
        from the replicated view, booking divergence from the physical
        catalog as misplacement/waste, and guarding against *phantom*
        sources (the view says a replica exists; physically it
        doesn't — the puller discovers this and re-resolves against the
        authoritative catalog, paying an extra metadata round). After a
        linearized read the view is the physical catalog, so divergence
        is structurally impossible."""
        view_src = self._best_or_none(self._catalog, name, to_site)
        ref_src, ref_est = self.authoritative.nearest_source(
            self.topology, name, to_site)
        if view_src is None:
            # the follower view has never heard of this dataset's
            # replicas: pull from the origin the completion event named
            # (the only location known out-of-band), even if a closer
            # staged copy physically exists (the lookup above found a
            # physical replica, so the origin exists)
            self.stats.fallback_reads += 1
            origin = self._origin(name)
            size = self.authoritative.dataset(name).size_bytes
            view_src = (origin, self.topology.path_info(
                origin, to_site).transfer_time(size))
        src, est = view_src
        if src != ref_src:
            self.stats.misplacements += 1
            if est > ref_est:
                self.stats.wasted_bytes += \
                    self.authoritative.dataset(name).size_bytes
        if not self.authoritative.has_replica(name, src):
            self.stats.phantom_sources += 1
            # one wasted metadata round to discover and re-resolve
            return ref_src, 2.0 * self.session.config.local_read_rtt_s
        return src, 0.0

    def _best_or_none(self, catalog, name, to_site):
        if name not in catalog:
            return None
        try:
            return catalog.nearest_source(self.topology, name, to_site)
        except DataFabricError:
            return None
