"""Scheduling context: the planner-visible state strategies consult.

Holds the topology, catalog-backed cost model, per-site slot availability
estimates, and RNG streams. The scheduler owns one instance per run and
keeps the slot estimates current as it assigns and completes tasks.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

import numpy as np

from repro.continuum.site import Site
from repro.continuum.topology import Topology
from repro.core.cost import BatchEstimate, CostModel, TaskEstimate
from repro.datafabric.catalog import ReplicaCatalog
from repro.errors import SchedulingError
from repro.utils.rng import RngRegistry
from repro.workflow.task import TaskSpec

# Earliest-free vectors are kept per candidate tuple. Churny runs see a
# small rotation of candidate sets (all-up, one-down, vetoed variants),
# so a short LRU captures them all; anything longer only hoards tuples
# that will never recur.
_AVAIL_CACHE_MAX = 8


class SchedulingContext:
    """What a placement strategy may look at and touch."""

    def __init__(
        self,
        topology: Topology,
        catalog: ReplicaCatalog,
        *,
        rngs: RngRegistry | None = None,
        candidate_sites: list[str] | None = None,
        view=None,
    ):
        self.topology = topology
        # strategies and the cost model read through ``view`` when the
        # run's metadata is served by the replicated control plane (a
        # possibly-stale CatalogView); the bare catalog otherwise. The
        # authoritative catalog stays reachable either way.
        self.catalog = view if view is not None else catalog
        self.authoritative = catalog
        self.cost = CostModel(topology, self.catalog)
        self.rngs = rngs or RngRegistry(0)
        names = candidate_sites if candidate_sites is not None else topology.site_names
        if not names:
            raise SchedulingError("no candidate sites")
        self._all_candidates: list[Site] = [topology.site(n) for n in names]
        self._down: set[str] = set()
        self._vetoed: set[str] = set()
        self._slots: dict[str, np.ndarray] = {
            s.name: np.zeros(s.slots) for s in self._all_candidates
        }
        # (busy-until, slot-index) heap mirror of _slots, updated in
        # lockstep: reserve() runs once per placed task, and one O(log
        # slots) heapreplace beats two O(slots) reductions there. The
        # lexicographic pop picks the smallest busy-until and, on ties,
        # the lowest slot index — exactly ndarray.argmin's first-minimum
        # rule — while load_of keeps the ndarray (same slot layout, so
        # its pairwise mean stays bit-stable).
        self._slot_heap: dict[str, list[tuple[float, int]]] = {
            s.name: [(0.0, i) for i in range(s.slots)]
            for s in self._all_candidates
        }
        # maintained copy of each site's earliest-free slot time, so the
        # hot est_available path is a dict lookup instead of a ufunc min
        self._slot_min: dict[str, float] = {
            s.name: 0.0 for s in self._all_candidates
        }
        # earliest-free vectors per candidate tuple for the batch path.
        # Reservations update the chosen site's entry of every cached
        # vector in place (there are at most _AVAIL_CACHE_MAX of them),
        # so in-wave placements never rebuild the vector per task; the
        # LRU bound keeps churn-varying candidate tuples from growing
        # the cache without limit.
        self._avail_cache: OrderedDict[
            tuple[str, ...], tuple[np.ndarray, dict[str, int]]
        ] = OrderedDict()
        self._cand_cache: list[Site] | None = None
        self._now = 0.0

    @property
    def candidates(self) -> list[Site]:
        """Candidate sites currently up and not vetoed (failure
        injection hides the dark ones from strategies; circuit breakers
        veto the unhealthy ones)."""
        cached = self._cand_cache
        if cached is None:
            if not self._down and not self._vetoed:
                cached = list(self._all_candidates)
            else:
                blocked = self._down | self._vetoed
                cached = [
                    s for s in self._all_candidates if s.name not in blocked
                ]
            self._cand_cache = cached
        return cached.copy()

    # -- availability (failure injection) -----------------------------------------
    def mark_down(self, site: str) -> None:
        if site not in self._slots:
            raise SchedulingError(f"{site!r} is not a candidate site")
        if site not in self._down:
            self._down.add(site)
            self._cand_cache = None

    def mark_up(self, site: str) -> None:
        if site in self._down:
            self._down.discard(site)
            self._cand_cache = None

    def is_down(self, site: str) -> bool:
        return site in self._down

    # -- health vetoes (resilience policies) ---------------------------------------
    def set_vetoed(self, sites) -> None:
        """Replace the veto set: sites hidden from strategies without
        being down (open circuit breakers, hedge-duplicate exclusion).
        The scheduler recomputes this before every placement round."""
        new = set(sites)
        if new != self._vetoed:
            self._vetoed = new
            self._cand_cache = None

    # -- clock (scheduler-maintained) ------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def set_now(self, t: float) -> None:
        self._now = t

    # -- slot availability estimates ----------------------------------------------
    def est_available(self, site: str) -> float:
        """Earliest time a slot at ``site`` is expected to be free."""
        try:
            earliest = self._slot_min[site]
        except KeyError:
            raise SchedulingError(f"{site!r} is not a candidate site") from None
        return max(earliest, self._now)

    def reserve(self, site: str, finish_time: float) -> None:
        """Record that the earliest slot at ``site`` is now believed busy
        until ``finish_time``."""
        heap = self._slot_heap[site]
        i = heap[0][1]
        heapq.heapreplace(heap, (finish_time, i))
        self._slots[site][i] = finish_time
        earliest = heap[0][0]
        self._slot_min[site] = earliest
        # changed-column-only maintenance of the cached earliest-free
        # vectors: only this site's entry moved, so every cached vector
        # stays exactly equal to a fresh _slot_min gather
        for avail, pos in self._avail_cache.values():
            i = pos.get(site)
            if i is not None:
                avail[i] = earliest

    def load_of(self, site: str) -> float:
        """Mean remaining busy time across slots (a load signal for
        least-loaded tie-breaking)."""
        slots = self._slots[site]
        return float(np.maximum(slots - self._now, 0.0).mean())

    # -- planner estimates ------------------------------------------------------------
    def estimate(self, task: TaskSpec, site: Site) -> TaskEstimate:
        return self.cost.estimate(task, site)

    def estimate_finish(self, task: TaskSpec, site: Site) -> tuple[TaskEstimate, float]:
        """EFT rule: staging overlaps the queue wait; execution starts at
        ``max(now + stage, slot available)`` and runs for ``exec``."""
        est = self.cost.estimate(task, site)
        start = max(self._now + est.stage_time_s, self.est_available(site.name))
        return est, start + est.exec_time_s

    def estimate_finish_batch(
        self, task: TaskSpec, sites: list[Site]
    ) -> tuple[BatchEstimate, np.ndarray]:
        """Vectorized :meth:`estimate_finish` over many sites: one
        :class:`BatchEstimate` plus the per-site finish-time array, each
        entry bit-identical to the scalar EFT rule."""
        est = self.cost.estimate_batch(task, sites)
        hit = self._avail_cache.get(est.sites)
        if hit is not None:
            earliest = hit[0]
            self._avail_cache.move_to_end(est.sites)
        else:
            try:
                earliest = np.fromiter(
                    (self._slot_min[s.name] for s in sites),
                    dtype=float, count=len(sites),
                )
            except KeyError as exc:
                raise SchedulingError(
                    f"{exc.args[0]!r} is not a candidate site"
                ) from None
            pos = {nm: i for i, nm in enumerate(est.sites)}
            self._avail_cache[est.sites] = (earliest, pos)
            if len(self._avail_cache) > _AVAIL_CACHE_MAX:
                self._avail_cache.popitem(last=False)
        # max(slot_min, now) elementwise == scalar est_available
        avail = np.maximum(earliest, self._now)
        start = np.maximum(self._now + est.stage_time_s, avail)
        return est, start + est.exec_time_s

    def estimate_finish_at(
        self, task: TaskSpec, site_name: str
    ) -> tuple[float, float, float]:
        """:meth:`estimate_finish` for one named site, returning the
        ``(stage_s, exec_s, finish)`` floats a placement decision needs.
        Served from the cost model's memoized row when the strategy's
        ranking pass just scored this task there (the wave dispatch hot
        path), falling back to the scalar estimate otherwise. Either way
        the floats are bit-identical to :meth:`estimate_finish`."""
        hit = self.cost.row_times(task, site_name)
        if hit is None:
            est, finish = self.estimate_finish(task, self.site(site_name))
            return est.stage_time_s, est.exec_time_s, finish
        stage_s, exec_s = hit
        start = max(self._now + stage_s, self.est_available(site_name))
        return stage_s, exec_s, start + exec_s

    def site(self, name: str) -> Site:
        return self.topology.site(name)
