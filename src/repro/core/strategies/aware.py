"""Deadline-aware placement: the latency (SLO) planner."""

from __future__ import annotations

import numpy as np

from repro.core.context import SchedulingContext
from repro.core.strategies.base import PlacementStrategy
from repro.core.strategies.greedy import earliest_finish_site
from repro.workflow.task import TaskSpec


class LatencyAwareStrategy(PlacementStrategy):
    """Deadline-first placement.

    For tasks with a deadline: among sites whose *estimated* finish meets
    it, pick the cheapest (dollars, then energy) — no point burning cloud
    credits on slack you do not need. If no site is predicted to make the
    deadline, fall back to plain earliest-finish (minimize the miss).
    Tasks without deadlines get earliest-finish.
    """

    name = "latency-aware"

    def select_site(self, task: TaskSpec, ctx: SchedulingContext) -> str:
        if task.deadline_s is None:
            return earliest_finish_site(task, ctx)
        sites = ctx.candidates
        est, finish = ctx.estimate_finish_batch(task, sites)
        idx = np.nonzero(finish <= task.deadline_s)[0]
        if idx.size == 0:
            return sites[int(finish.argmin())].name
        # cheapest feasible site: lexicographic (usd, energy, finish,
        # name) minimum, matching the scalar tuple-min over feasibles
        names = np.array([sites[int(i)].name for i in idx])
        order = np.lexsort(
            (names, finish[idx], est.energy_j[idx], est.total_usd[idx])
        )
        return str(names[order[0]])
