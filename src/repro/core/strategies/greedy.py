"""List schedulers: greedy earliest-finish-time and HEFT.

Greedy EFT evaluates every candidate site's estimated finish (staging
overlapped with queueing, per the context's EFT rule) and takes the
minimum — locally optimal, rank-free.

HEFT (Topcuoglu et al.) adds the global ingredient: tasks are prioritized
by *upward rank* — the longest remaining path to a sink measured in mean
execution plus mean communication time — so critical-path tasks get first
pick of the fast sites. Site selection is the same EFT rule. The E2
ablation compares exactly these two to isolate the value of ranking.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import SchedulingContext
from repro.core.strategies.base import PlacementStrategy
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskSpec


def earliest_finish_site(task: TaskSpec, ctx: SchedulingContext) -> str:
    """The EFT decision shared by several strategies.

    One vectorized finish-time pass over all candidates; ``argmin``
    keeps the first minimum, matching the scalar first-wins scan this
    replaced.
    """
    sites = ctx.candidates
    if not sites:
        return None
    _, finish = ctx.estimate_finish_batch(task, sites)
    return sites[int(finish.argmin())].name


class GreedyEFTStrategy(PlacementStrategy):
    """Earliest-finish-time without task ranking."""

    name = "greedy-eft"

    def select_site(self, task: TaskSpec, ctx: SchedulingContext) -> str:
        return earliest_finish_site(task, ctx)


class HEFTStrategy(PlacementStrategy):
    """Heterogeneous Earliest Finish Time."""

    name = "heft"

    def __init__(self) -> None:
        self._rank: dict[str, float] = {}

    def prepare(self, dag: WorkflowDAG, ctx: SchedulingContext) -> None:
        """Compute upward ranks from mean execution and communication."""
        links = ctx.topology.links()
        if links:
            mean_bw = float(np.mean([l.bandwidth_Bps for _, _, l in links]))
        else:
            mean_bw = float("inf")

        def mean_time(task: TaskSpec) -> float:
            exec_mean = ctx.cost.mean_exec_time(task, ctx.candidates)
            comm_mean = task.output_bytes / mean_bw if mean_bw else 0.0
            return exec_mean + comm_mean

        # merge (not replace): in stream mode prepare() is called per
        # arriving job while earlier jobs' tasks are still in flight;
        # observe() drops each rank once its task completes
        self._rank.update(dag.bottom_levels(time_of=mean_time))

    def prioritize(self, ready: list[TaskSpec], ctx: SchedulingContext) -> list[TaskSpec]:
        """Highest upward rank first (unknown tasks sort last, stable)."""
        return sorted(ready, key=lambda t: -self._rank.get(t.name, 0.0))

    def select_site(self, task: TaskSpec, ctx: SchedulingContext) -> str:
        return earliest_finish_site(task, ctx)

    def observe(self, record, ctx: SchedulingContext) -> None:
        """A completed task is never ranked again: forget its rank."""
        self._rank.pop(record.task, None)
