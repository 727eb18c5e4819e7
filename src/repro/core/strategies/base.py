"""Strategy interface."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.context import SchedulingContext
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskSpec


class PlacementStrategy(ABC):
    """Pluggable site selection (and optional task prioritization).

    Lifecycle per scheduler run:

    1. :meth:`prepare` — once, with the full DAG (compute ranks etc.),
    2. :meth:`prioritize` — whenever several tasks are ready at once,
    3. :meth:`select_site` — per unpinned task, in :meth:`prioritize`
       order, returning a site name; the scheduler reserves each
       chosen slot before the next call, so every selection sees
       the earlier placements of its batch,
    4. :meth:`observe` — after each task completes, with the measured
       record (adaptive strategies learn from this).

    Strategies must be deterministic given the context's RNG registry.
    """

    name: str = "base"

    def prepare(self, dag: WorkflowDAG, ctx: SchedulingContext) -> None:
        """Hook for per-run precomputation; default does nothing."""

    def prioritize(self, ready: list[TaskSpec], ctx: SchedulingContext) -> list[TaskSpec]:
        """Order simultaneously-ready tasks; default keeps FIFO order."""
        return list(ready)

    @abstractmethod
    def select_site(self, task: TaskSpec, ctx: SchedulingContext) -> str:
        """Pick the execution site for ``task``."""

    def observe(self, record, ctx: SchedulingContext) -> None:
        """Completion feedback (measured :class:`TaskRecord`); default
        ignores it."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
