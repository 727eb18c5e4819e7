"""Cost estimation: the planner's view of time, bytes, energy, dollars.

A :class:`CostModel` answers "what would running task T at site S cost?"
using only catalog and topology state — no simulation. Strategies rank
candidate sites with these estimates; the scheduler then measures what
actually happens (contention makes reality worse than the estimate, which
is exactly the gap E2 quantifies between planner quality levels).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.continuum.site import Site
from repro.continuum.topology import Topology
from repro.datafabric.catalog import ReplicaCatalog
from repro.errors import DataFabricError, SchedulingError
from repro.workflow.task import TaskSpec

_SITE_NAME = operator.attrgetter("name")

# Bound on the wave row memo: cleared wholesale once exceeded (a cap,
# not an LRU — stale-epoch entries are overwritten in place, so the
# steady-state population is one row per live (signature, candidate-set)
# pair and the cap only matters under pathological signature churn).
_ROW_CACHE_MAX = 4096


def _stage_times(lat: np.ndarray, bw: np.ndarray, cols: np.ndarray,
                 size: float) -> np.ndarray:
    """Unloaded staging times ``lat + size / bw`` over candidate columns.

    Unreachable destinations carry ``bw == 0`` in the path matrices
    (see :meth:`Topology.path_rows`); they must estimate as ``inf`` —
    including for zero-byte datasets, where a bare ``0/0`` would poison
    the row with NaN and win every ``argmin``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        times = lat[cols] + size / bw[cols]
    unreachable = bw[cols] == 0.0
    if unreachable.any():
        times[unreachable] = np.inf
    return times


@dataclass(frozen=True)
class TaskEstimate:
    """Planner estimate for one (task, site) pairing."""

    task: str
    site: str
    stage_time_s: float      # move missing inputs to the site (unloaded)
    exec_time_s: float       # service time at the site
    bytes_moved: float       # input bytes not already resident
    energy_j: float          # marginal execution energy
    compute_usd: float       # slot-time dollars
    transfer_usd: float      # data movement dollars along chosen paths

    @property
    def total_time_s(self) -> float:
        return self.stage_time_s + self.exec_time_s

    @property
    def total_usd(self) -> float:
        return self.compute_usd + self.transfer_usd


class BatchEstimate:
    """Planner estimates for one task across many candidate sites.

    Field ``i`` of every array corresponds to ``sites[i]``; each value is
    bit-identical to the scalar :class:`TaskEstimate` field for the same
    (task, site) pair — batch estimation is a vectorization, not an
    approximation, which is what lets strategies rank sites from these
    arrays without changing any placement decision.

    A plain ``__slots__`` class rather than a dataclass: wave dispatch
    constructs one of these per placed task (rebinding memoized arrays
    to the task's name), and the frozen-dataclass ``__setattr__``
    detour was a measurable slice of the dispatch profile. The arrays
    a memoized instance carries are read-only.
    """

    __slots__ = ("task", "sites", "stage_time_s", "exec_time_s",
                 "bytes_moved", "energy_j", "compute_usd", "transfer_usd")

    def __init__(self, task: str, sites: tuple[str, ...],
                 stage_time_s: np.ndarray, exec_time_s: np.ndarray,
                 bytes_moved: np.ndarray, energy_j: np.ndarray,
                 compute_usd: np.ndarray, transfer_usd: np.ndarray):
        self.task = task
        self.sites = sites
        self.stage_time_s = stage_time_s
        self.exec_time_s = exec_time_s
        self.bytes_moved = bytes_moved
        self.energy_j = energy_j
        self.compute_usd = compute_usd
        self.transfer_usd = transfer_usd

    def __repr__(self) -> str:
        return (f"BatchEstimate(task={self.task!r}, "
                f"sites={len(self.sites)})")

    @property
    def total_time_s(self) -> np.ndarray:
        return self.stage_time_s + self.exec_time_s

    @property
    def total_usd(self) -> np.ndarray:
        return self.compute_usd + self.transfer_usd

    def __len__(self) -> int:
        return len(self.sites)

    def at(self, i: int) -> TaskEstimate:
        """The scalar estimate for candidate ``i`` (tests, debugging)."""
        return TaskEstimate(
            task=self.task,
            site=self.sites[i],
            stage_time_s=float(self.stage_time_s[i]),
            exec_time_s=float(self.exec_time_s[i]),
            bytes_moved=float(self.bytes_moved[i]),
            energy_j=float(self.energy_j[i]),
            compute_usd=float(self.compute_usd[i]),
            transfer_usd=float(self.transfer_usd[i]),
        )


class CostModel:
    """Estimates built from topology + replica catalog state."""

    def __init__(self, topology: Topology, catalog: ReplicaCatalog):
        self.topology = topology
        self.catalog = catalog
        # nearest-source memo: (dataset, site) -> (src, est), valid for
        # one catalog version. Placement evaluates every candidate site
        # for every ready task, so identical lookups repeat heavily
        # within a dispatch round; this cache was the top line of the
        # scheduler profile before it existed.
        self._nearest_cache: dict[tuple[str, str], tuple[str, float]] = {}
        # per-dataset staging arrays over a fixed candidate tuple,
        # validated by (routes epoch, per-dataset replica version)
        self._stage_cache: dict = {}
        # per-candidate-tuple static site arrays (sites are frozen):
        # matrix columns (validated by routes epoch), speeds per task
        # kind, busy watts, compute price
        self._cols_cache: dict = {}
        self._speed_cache: dict = {}
        self._watts_cache: dict = {}
        self._price_cache: dict = {}
        self._cache_version = catalog.version
        # whole-row memo for wave dispatch: tasks that share an input
        # signature (inputs, kind, work) over the same candidate tuple
        # reuse one set of estimate arrays. Keys validate against
        # (routes epoch, catalog version) — topology rewires, outages
        # that change routing, and every replica add/drop (staging
        # completions, cache admits/evictions, output registration) bump
        # one of the two. The memoized arrays are frozen read-only
        # because every hit shares them.
        self._row_cache: dict = {}
        # last row served, for estimate-at-chosen-site lookups right
        # after a strategy ranked this same task over its candidates
        self._last_row: tuple | None = None

    def exec_time(self, task: TaskSpec, site: Site) -> float:
        """Service time of ``task`` on one slot of ``site``."""
        return site.service_time(task.work, kind=task.kind)

    def _nearest(self, name: str, site_name: str) -> tuple[str, float]:
        if self._cache_version != self.catalog.version:
            self._nearest_cache.clear()
            self._cache_version = self.catalog.version
        key = (name, site_name)
        hit = self._nearest_cache.get(key)
        if hit is None:
            hit = self.catalog.nearest_source(self.topology, name, site_name)
            self._nearest_cache[key] = hit
        return hit

    def stage_plan(
        self, task: TaskSpec, site: Site
    ) -> list[tuple[str, str, float]]:
        """For each input not at ``site``: ``(dataset, source, seconds)``
        using the nearest replica. Raises if an input has no replica
        anywhere (a dependency not yet produced — planner misuse)."""
        plan = []
        for name in task.inputs:
            if self.catalog.has_replica(name, site.name):
                continue
            src, est = self._nearest(name, site.name)
            plan.append((name, src, est))
        return plan

    def estimate(self, task: TaskSpec, site: Site) -> TaskEstimate:
        """Full planner estimate for placing ``task`` at ``site``.

        Staging of multiple inputs is assumed parallel (time = max), as
        the scheduler indeed fetches them concurrently.
        """
        plan = self.stage_plan(task, site)
        stage_time = max((t for _, _, t in plan), default=0.0)
        bytes_moved = sum(
            self.catalog.dataset(name).size_bytes for name, _, _ in plan
        )
        transfer_usd = sum(
            self.topology.path_info(src, site.name).transfer_cost(
                self.catalog.dataset(name).size_bytes
            )
            for name, src, _ in plan
        )
        exec_time = self.exec_time(task, site)
        return TaskEstimate(
            task=task.name,
            site=site.name,
            stage_time_s=stage_time,
            exec_time_s=exec_time,
            bytes_moved=bytes_moved,
            energy_j=site.power.marginal_energy(exec_time),
            compute_usd=site.pricing.compute_cost(exec_time),
            transfer_usd=transfer_usd,
        )

    def _stage_arrays(
        self, name: str, names: tuple[str, ...], cols: np.ndarray, epoch: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Per-candidate staging contributions for one dataset, memoized
        per (routes epoch, dataset replica version) so one dataset's
        arrays survive other datasets being staged. Returns
        ``(stage_time, bytes, transfer_usd)`` with zeros at candidates
        that already hold a replica, or ``None`` when every candidate
        does (nothing to stage anywhere).

        Source choice reproduces :meth:`ReplicaCatalog.nearest_source`
        exactly: candidate sources are scanned in replica-registration
        order and ``argmin`` keeps the first minimum, matching the
        scalar strict-``<`` first-wins scan.
        """
        key = (name, names)
        dsver = self.catalog.dataset_version(name)
        hit = self._stage_cache.get(key)
        if hit is not None and hit[0] == epoch and hit[1] == dsver:
            return hit[5]
        size = self.catalog.dataset(name).size_bytes
        sources = self.catalog.locations(name)
        if not sources:
            raise DataFabricError(f"dataset {name!r} has no replicas")
        n = len(names)
        t_best = u_best = None
        if hit is not None and hit[0] == epoch:
            # stale only because replicas changed; if sources merely grew
            # (the common staging pattern), fold the appended ones into
            # the cached per-source minimum instead of rebuilding. A
            # later source wins only on strictly smaller time — the same
            # rule as argmin keeping its first occurrence.
            old = hit[2]
            if len(sources) >= len(old) and sources[:len(old)] == old:
                t_best, u_best = hit[3], hit[4]
                for src in sources[len(old):]:
                    lat, bw, usd = self.topology.path_rows(src)
                    t_new = _stage_times(lat, bw, cols, size)
                    better = t_new < t_best
                    t_best = np.where(better, t_new, t_best)
                    u_best = np.where(better, usd[cols], u_best)
        if t_best is None:
            if len(sources) == 1:
                lat, bw, usd = self.topology.path_rows(sources[0])
                t_best = _stage_times(lat, bw, cols, size)
                u_best = usd[cols]
            else:
                times = np.empty((len(sources), n))
                usds = np.empty((len(sources), n))
                for i, src in enumerate(sources):
                    lat, bw, usd = self.topology.path_rows(src)
                    times[i] = _stage_times(lat, bw, cols, size)
                    usds[i] = usd[cols]
                best = times.argmin(axis=0)
                picked = np.arange(n)
                t_best = times[best, picked]
                u_best = usds[best, picked]
        held = set(sources)
        need = np.fromiter(
            (nm not in held for nm in names), dtype=bool, count=n,
        )
        if not need.any():
            arrays = None
        else:
            # pre-masked contribution arrays: adding 0.0 at resident
            # sites is a bit-exact no-op, so estimate_batch can
            # accumulate with plain ufuncs instead of fancy indexing
            with np.errstate(invalid="ignore"):
                usd_term = u_best * (size / 1e9)
            # unreachable candidates carry inf $/GB; inf * 0 bytes is
            # NaN, which must rank as unreachable, not free
            usd_term = np.where(np.isfinite(u_best), usd_term, np.inf)
            arrays = (
                np.where(need, t_best, 0.0),
                np.where(need, size, 0.0),
                np.where(need, usd_term, 0.0),
            )
        self._stage_cache[key] = (epoch, dsver, sources, t_best, u_best, arrays)
        return arrays

    def estimate_batch(self, task: TaskSpec, sites: list[Site]) -> BatchEstimate:
        """Vectorized :meth:`estimate` over many candidate sites.

        Produces arrays whose entries are bit-identical to the scalar
        estimates (same routing, same nearest-replica tie-breaks, same
        floating-point operation order), at O(inputs x sources) numpy
        work instead of O(sites x inputs x sources) Python work.
        """
        if not sites:
            raise SchedulingError("estimate_batch over an empty site list")
        names = tuple(map(_SITE_NAME, sites))
        n = len(names)
        epoch = self.topology.routes_epoch
        row_key = (task.inputs, task.kind, task.work, names)
        version = self.catalog.version
        row = self._row_cache.get(row_key)
        if row is not None and row[0] == epoch and row[1] == version:
            batch = BatchEstimate(task.name, names, *row[2])
            self._last_row = (row_key, epoch, version, batch)
            return batch
        hit = self._cols_cache.get(names)
        if hit is not None and hit[0] == epoch:
            cols = hit[1]
        else:
            index = self.topology.site_index
            try:
                cols = np.fromiter(
                    (index[nm] for nm in names), dtype=np.intp, count=n
                )
            except KeyError as exc:
                raise SchedulingError(f"unknown site {exc.args[0]!r}") from None
            self._cols_cache[names] = (epoch, cols)
        stage = np.zeros(n)
        bytes_moved = np.zeros(n)
        transfer_usd = np.zeros(n)
        for name in task.inputs:
            arrays = self._stage_arrays(name, names, cols, epoch)
            if arrays is None:
                continue
            t_add, b_add, u_add = arrays
            # parallel staging: per-site time is the max over needed
            # inputs; bytes and dollars accumulate in task.inputs order,
            # matching the scalar plan's summation order
            np.maximum(stage, t_add, out=stage)
            bytes_moved += b_add
            transfer_usd += u_add
        exec_t = task.work / self._speeds(names, task.kind, sites)
        watts = self._watts_cache.get(names)
        if watts is None:
            watts = np.fromiter(
                (s.power.busy_watts for s in sites), dtype=float, count=n
            )
            self._watts_cache[names] = watts
        price = self._price_cache.get(names)
        if price is None:
            price = np.fromiter(
                (s.pricing.usd_per_core_hour for s in sites),
                dtype=float, count=n,
            )
            self._price_cache[names] = price
        # elementwise forms of PowerModel.marginal_energy and
        # PricingModel.compute_cost (slots=1): same operation order,
        # bit-identical to the scalar calls
        energy = watts * exec_t
        compute = price * (exec_t / 3600.0)
        batch = BatchEstimate(
            task=task.name,
            sites=names,
            stage_time_s=stage,
            exec_time_s=exec_t,
            bytes_moved=bytes_moved,
            energy_j=energy,
            compute_usd=compute,
            transfer_usd=transfer_usd,
        )
        arrays = (stage, exec_t, bytes_moved, energy, compute, transfer_usd)
        for a in arrays:
            a.setflags(write=False)
        if len(self._row_cache) >= _ROW_CACHE_MAX:
            self._row_cache.clear()
        self._row_cache[row_key] = (epoch, version, arrays)
        self._last_row = (row_key, epoch, version, batch)
        return batch

    def row_times(
        self, task: TaskSpec, site_name: str
    ) -> tuple[float, float] | None:
        """``(stage_s, exec_s)`` for one named site served from the most
        recent memoized row, or ``None`` when no current row covers it.

        The wave dispatch loop calls this for the site the strategy just
        chose — the strategy's ranking pass populated ``_last_row`` for
        exactly this task signature, so the common case is two column
        reads. Bit-identical to the :meth:`estimate` fields by the batch
        contract (``BatchEstimate.at(i)`` equals the scalar estimate)."""
        last = self._last_row
        if last is None:
            return None
        row_key, epoch, version, batch = last
        if (row_key[0] != task.inputs or row_key[1] != task.kind
                or row_key[2] != task.work):
            return None
        if (epoch != self.topology.routes_epoch
                or version != self.catalog.version):
            return None
        try:
            i = batch.sites.index(site_name)
        except ValueError:
            return None
        return float(batch.stage_time_s[i]), float(batch.exec_time_s[i])

    def _speeds(
        self, names: tuple[str, ...], kind: str | None, sites: list[Site]
    ) -> np.ndarray:
        """Cached per-candidate effective speeds for a task kind (sites
        are frozen, so these never expire)."""
        key = (names, kind)
        speeds = self._speed_cache.get(key)
        if speeds is None:
            speeds = np.fromiter(
                (s.effective_speed(kind) for s in sites),
                dtype=float, count=len(names),
            )
            self._speed_cache[key] = speeds
        return speeds

    def mean_exec_time(self, task: TaskSpec, sites: list[Site]) -> float:
        """Average service time across candidate sites (HEFT ranking)."""
        if not sites:
            raise SchedulingError("mean_exec_time over an empty site list")
        names = tuple(s.name for s in sites)
        exec_t = task.work / self._speeds(names, task.kind, sites)
        # left-to-right Python summation, matching the scalar loop's bits
        return sum(exec_t.tolist()) / len(sites)
