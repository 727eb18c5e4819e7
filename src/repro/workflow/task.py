"""Task specifications for declarative (simulated) workflows."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.datafabric.dataset import Dataset
from repro.errors import WorkflowError
from repro.utils.validation import check_non_negative


class TaskState(Enum):
    """Lifecycle of a task inside a scheduler run."""

    PENDING = "pending"        # dependencies unmet
    READY = "ready"            # eligible, waiting for placement/slot
    STAGING = "staging"        # inputs moving to the chosen site
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One unit of schedulable work.

    Attributes
    ----------
    name:
        DAG-unique identifier.
    work:
        Compute demand in work units (seconds on a speed-1.0 slot).
    kind:
        Matched against site specializations (accelerators).
    inputs:
        Names of datasets this task reads. Each must be produced by
        another task in the DAG or exist in the replica catalog before
        the run (an *external input*).
    outputs:
        Datasets this task produces (registered at its execution site).
    after:
        Extra control-only dependencies (task names) beyond dataflow.
    deadline_s:
        Optional per-task latency SLO measured from workflow start;
        ``None`` means best-effort.
    pinned_site:
        Optional site name forcing placement (instrument-resident steps).
    """

    name: str
    work: float
    kind: str = "generic"
    inputs: tuple[str, ...] = ()
    outputs: tuple[Dataset, ...] = ()
    after: tuple[str, ...] = ()
    deadline_s: float | None = None
    pinned_site: str | None = None
    # cached: output_names sits on DAG-construction hot paths
    _output_names: tuple[str, ...] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if not self.name:
            raise WorkflowError("task name must be non-empty")
        check_non_negative("work", self.work)
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "after", tuple(self.after))
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise WorkflowError(
                f"deadline_s must be positive or None, got {self.deadline_s}"
            )
        if len(set(self.inputs)) != len(self.inputs):
            dup = next(n for i, n in enumerate(self.inputs)
                       if n in self.inputs[:i])
            raise WorkflowError(
                f"task {self.name!r} declares input {dup!r} twice")
        seen = set()
        for out in self.outputs:
            if out.name in seen:
                raise WorkflowError(
                    f"task {self.name!r} declares output {out.name!r} twice"
                )
            seen.add(out.name)
        object.__setattr__(
            self, "_output_names", tuple(d.name for d in self.outputs)
        )

    @property
    def output_names(self) -> tuple[str, ...]:
        return self._output_names

    @property
    def output_bytes(self) -> float:
        return sum(d.size_bytes for d in self.outputs)
