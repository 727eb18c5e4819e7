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
# not an LRU). The memo already holds rows of the current stamp only,
# so the cap matters only when one stamp sees more distinct
# (signature, candidate-set) pairs than this.
_ROW_CACHE_MAX = 4096


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
        # per-dataset staging arrays: dataset -> candidate tuple ->
        # entry, each validated by (routes epoch, per-dataset replica
        # version). The scheduler drops a dataset's entries with
        # forget_dataset once its last reader is placed, so the cache
        # holds only datasets that a placement may still estimate.
        self._stage_cache: dict[str, dict] = {}
        # per-candidate-tuple site arrays, validated by routes epoch:
        # (matrix columns, busy watts, compute price, speeds per kind)
        self._site_cache: dict = {}
        # whole-row memo for wave dispatch: tasks that share an input
        # signature (inputs, kind, work) over the same candidate tuple
        # reuse one set of estimate arrays. Keys validate against
        # (routes epoch, catalog version) — topology rewires, outages
        # that change routing, and every replica add/drop (staging
        # completions, cache admits/evictions, output registration) bump
        # one of the two. Both only grow, so a row of an older stamp
        # can never be read again: the memo is cleared when the stamp
        # moves and holds rows of _row_stamp only. (A control-plane
        # read that falls back to a staler replica steps the version
        # back; rows cleared by that step are rebuilt, same floats.)
        # The memoized arrays are frozen read-only because every hit
        # shares them.
        self._row_cache: dict = {}
        self._row_stamp: tuple[int, int] | None = None
        # last row served, for estimate-at-chosen-site lookups right
        # after a strategy ranked this same task over its candidates
        self._last_row: tuple | None = None

    def exec_time(self, task: TaskSpec, site: Site) -> float:
        """Service time of ``task`` on one slot of ``site``."""
        return site.service_time(task.work, kind=task.kind)

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
            src, est = self.catalog.nearest_source(
                self.topology, name, site.name)
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
        self, inputs: tuple[str, ...], names: tuple[str, ...],
        cols: np.ndarray, epoch: int,
    ) -> list:
        """Per-input staging contributions over one candidate tuple, in
        ``inputs`` order: ``(stage_time, bytes, transfer_usd)`` with
        zeros at candidates that already hold a replica, or ``None``
        where every candidate does (nothing to stage anywhere).

        Entries are memoized per dataset, validated by (routes epoch,
        dataset replica version), so one dataset's arrays survive other
        datasets being staged. The inputs the cache cannot serve are
        built together: one :meth:`Topology.path_block` gather and one
        ``(sources x candidates)`` pass give the staging times from
        every source of every such input. An input's row starts from
        its first source's, or from the cached minimum when replicas
        were only appended since, and folds its further sources in one
        at a time; masking and pricing then run once over the block.

        Source choice reproduces :meth:`ReplicaCatalog.nearest_source`
        exactly: sources are folded in replica-registration order and a
        later source wins only on strictly smaller time, the scalar
        first-wins scan. A resumed fold keeps the same floats.
        """
        catalog = self.catalog
        out = []
        misses = []
        # one gather row per source: each miss's first source, then the
        # further sources of multi-source misses, every row staging its
        # own dataset's size
        srcs = []
        sizes = []
        multi = []
        for name in inputs:
            dsver = catalog.dataset_version(name)
            per_names = self._stage_cache.get(name)
            hit = per_names.get(names) if per_names is not None else None
            if hit is not None and hit[0] == epoch and hit[1] == dsver:
                out.append(hit[5])
                continue
            size = catalog.dataset(name).size_bytes
            sources = catalog.locations(name)
            if not sources:
                raise DataFabricError(f"dataset {name!r} has no replicas")
            if len(sources) > 1:
                if hit is not None and (hit[0] != epoch
                                        or sources[:len(hit[2])] != hit[2]):
                    hit = None
                multi.append((len(misses), size, sources, hit))
            misses.append((len(out), name, dsver, sources))
            out.append(None)
            srcs.append(sources[0])
            sizes.append((size,))
        if not misses:
            return out
        folds = []
        for i, size, sources, hit in multi:
            folds.append((i, hit, len(srcs), len(srcs) + len(sources) - 1))
            srcs.extend(sources[1:])
            sizes.extend([(size,)] * (len(sources) - 1))
        block = self.topology.path_block(srcs, cols)
        lat, bw, usd = block
        sizes = np.array(sizes, dtype=float)
        index = self.topology.site_index
        need = np.not_equal.outer([index[src] for src in srcs], cols)
        # the stage cache keeps each miss's raw minima (for resumed
        # folds) and its masked contributions, so those live in arrays
        # of their own: a kept view pins only planes that are used
        best = np.empty((2,) + lat.shape)
        times, u = best
        u[...] = usd
        # unreachable candidates carry bw == 0 and inf $/GB: their
        # x / 0, 0 / 0 and inf * 0 bytes are overwritten with inf, so
        # they rank as unreachable, not free (zero-byte datasets too)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(sizes, bw, out=times)
            times += lat
            times[bw == 0.0] = np.inf
            for i, hit, first, end in folds:
                if hit is None:
                    start, t_best, u_best = first, times[i], u[i]
                else:   # resume past the sources the cached minimum covers
                    start = first + len(hit[2]) - 1
                    t_best, u_best = hit[3], hit[4]
                for t_new, u_new in zip(times[start:end], u[start:end]):
                    better = t_new < t_best
                    t_best = np.where(better, t_new, t_best)
                    u_best = np.where(better, u_new, u_best)
                times[i] = t_best
                u[i] = u_best
                need[i] &= need[first:end].all(axis=0)
            # the gathered block becomes (seconds, bytes, dollars)
            np.multiply(u, sizes / 1e9, out=usd)
        usd[~np.isfinite(u)] = np.inf
        lat[...] = times
        bw[...] = sizes
        # pre-masked contribution arrays: adding 0.0 at resident sites
        # is a bit-exact no-op, so estimate_batch can accumulate with
        # plain ufuncs instead of fancy indexing. Rows past the misses
        # (further sources) are masked too, and never read.
        masked = np.where(need, block, 0.0)
        n = len(names)
        for (slot, name, dsver, sources), t_best, u_best, needs, arrays in zip(
                misses, times, u, need, zip(*masked)):
            # with fewer sources than candidates, some candidate stages
            if len(sources) >= n and not needs.any():
                arrays = None
            self._stage_cache.setdefault(name, {})[names] = (
                epoch, dsver, sources, t_best, u_best, arrays)
            out[slot] = arrays
        return out

    def forget_dataset(self, name: str) -> None:
        """Drop every staging entry of dataset ``name``. Safe at any
        time: a later lookup (a retry or hedge of a placed reader)
        re-derives the entry with the same fold, so the floats match."""
        self._stage_cache.pop(name, None)

    def estimate_batch(self, task: TaskSpec, sites: list[Site]) -> BatchEstimate:
        """Vectorized :meth:`estimate` over many candidate sites.

        Produces arrays whose entries are bit-identical to the scalar
        estimates (same routing, same nearest-replica tie-breaks, same
        floating-point operation order), at O(inputs x sources) numpy
        work instead of O(sites x inputs x sources) Python work. The
        staging arrays of every input the stage cache cannot serve come
        from one ``(inputs x candidates)`` pass (:meth:`_stage_arrays`);
        only the accumulation below runs per input, because bytes and
        dollars must add in ``task.inputs`` order.
        """
        if not sites:
            raise SchedulingError("estimate_batch over an empty site list")
        names = tuple(map(_SITE_NAME, sites))
        n = len(names)
        epoch = self.topology.routes_epoch
        row_key = (task.inputs, task.kind, task.work, names)
        version = self.catalog.version
        if self._row_stamp != (epoch, version):
            self._row_cache.clear()
            self._row_stamp = (epoch, version)
        row = self._row_cache.get(row_key)
        if row is not None and row[0] == epoch and row[1] == version:
            batch = BatchEstimate(task.name, names, *row[2])
            self._last_row = (row_key, epoch, version, batch)
            return batch
        cols, watts, price, _ = self._site_arrays(names, sites)
        stage = np.zeros(n)
        bytes_moved = np.zeros(n)
        transfer_usd = np.zeros(n)
        for arrays in self._stage_arrays(task.inputs, names, cols, epoch):
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

    def _site_arrays(
        self, names: tuple[str, ...], sites: list[Site]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """``(matrix columns, busy watts, compute price, speeds by
        kind)`` for one candidate tuple, rebuilt when the routes epoch
        moves (sites are frozen; the columns follow the topology)."""
        epoch = self.topology.routes_epoch
        hit = self._site_cache.get(names)
        if hit is not None and hit[0] == epoch:
            return hit[1]
        n = len(names)
        index = self.topology.site_index
        try:
            cols = np.fromiter(
                (index[nm] for nm in names), dtype=np.intp, count=n
            )
        except KeyError as exc:
            raise SchedulingError(f"unknown site {exc.args[0]!r}") from None
        entry = (
            cols,
            np.fromiter((s.power.busy_watts for s in sites),
                        dtype=float, count=n),
            np.fromiter((s.pricing.usd_per_core_hour for s in sites),
                        dtype=float, count=n),
            {},
        )
        self._site_cache[names] = (epoch, entry)
        return entry

    def _speeds(
        self, names: tuple[str, ...], kind: str | None, sites: list[Site]
    ) -> np.ndarray:
        """Per-candidate effective speeds for a task kind, cached in the
        candidate tuple's site arrays."""
        by_kind = self._site_arrays(names, sites)[3]
        speeds = by_kind.get(kind)
        if speeds is None:
            speeds = by_kind[kind] = np.fromiter(
                (s.effective_speed(kind) for s in sites),
                dtype=float, count=len(names),
            )
        return speeds

    def mean_exec_time(self, task: TaskSpec, sites: list[Site]) -> float:
        """Average service time across candidate sites (HEFT ranking)."""
        if not sites:
            raise SchedulingError("mean_exec_time over an empty site list")
        names = tuple(s.name for s in sites)
        exec_t = task.work / self._speeds(names, task.kind, sites)
        # left-to-right Python summation, matching the scalar loop's bits
        return sum(exec_t.tolist()) / len(sites)
