"""Result records of a scheduled workflow run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.policy import ResilienceStats
from repro.utils.stats import summarize


class PlacementDecision:
    """One strategy decision, as made (estimates at decision time).

    A plain ``__slots__`` record rather than a frozen dataclass: one is
    constructed per placed task on the dispatch hot path, where the
    frozen ``__setattr__`` detour was a measurable slice of the profile.
    Equality and hashing compare all six fields, as the dataclass did —
    the wave-vs-scalar differential relies on decision equality being
    exact."""

    __slots__ = ("task", "site", "decided_at", "est_stage_s",
                 "est_exec_s", "est_finish")

    def __init__(self, task: str, site: str, decided_at: float,
                 est_stage_s: float, est_exec_s: float, est_finish: float):
        self.task = task
        self.site = site
        self.decided_at = decided_at
        self.est_stage_s = est_stage_s
        self.est_exec_s = est_exec_s
        self.est_finish = est_finish

    def _astuple(self) -> tuple:
        return (self.task, self.site, self.decided_at,
                self.est_stage_s, self.est_exec_s, self.est_finish)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlacementDecision):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (f"PlacementDecision(task={self.task!r}, site={self.site!r}, "
                f"decided_at={self.decided_at!r}, "
                f"est_stage_s={self.est_stage_s!r}, "
                f"est_exec_s={self.est_exec_s!r}, "
                f"est_finish={self.est_finish!r})")


@dataclass(slots=True)
class TaskRecord:
    """Measured lifecycle of one task in a run."""

    task: str
    site: str
    kind: str = "generic"
    ready_at: float = 0.0
    stage_started: float = 0.0
    stage_finished: float = 0.0
    exec_started: float = 0.0
    exec_finished: float = 0.0
    bytes_staged: float = 0.0
    energy_j: float = 0.0
    compute_usd: float = 0.0
    deadline_s: float | None = None
    attempts: int = 1

    @property
    def stage_time(self) -> float:
        return self.stage_finished - self.stage_started

    @property
    def queue_time(self) -> float:
        """Waiting for a worker slot after inputs arrived."""
        return self.exec_started - self.stage_finished

    @property
    def exec_time(self) -> float:
        return self.exec_finished - self.exec_started

    @property
    def turnaround(self) -> float:
        """Ready-to-finished latency."""
        return self.exec_finished - self.ready_at

    @property
    def met_deadline(self) -> bool | None:
        """Deadline verdict (finish measured from workflow t=0), or None
        when the task has no deadline."""
        if self.deadline_s is None:
            return None
        return self.exec_finished <= self.deadline_s


@dataclass
class ScheduleResult:
    """Everything a benchmark needs from one workflow execution."""

    workflow: str
    strategy: str
    makespan: float
    records: dict[str, TaskRecord]
    decisions: list[PlacementDecision]
    bytes_moved: float
    transfer_usd: float
    compute_usd: float
    energy_j: float
    site_busy_s: dict[str, float] = field(default_factory=dict)
    interruptions: int = 0       # task executions cut short by outages
    wasted_exec_s: float = 0.0   # execution seconds lost to interrupts
    resilience: ResilienceStats | None = None   # recovery-action accounting
    control: object | None = None   # ControlPlaneStats when replicated metadata
                                    # served this run (None on single-copy runs)

    @property
    def total_usd(self) -> float:
        return self.transfer_usd + self.compute_usd

    @property
    def task_count(self) -> int:
        return len(self.records)

    def tasks_at(self, site: str) -> list[str]:
        return [name for name, r in self.records.items() if r.site == site]

    def deadline_stats(self) -> tuple[int, int]:
        """``(met, total_with_deadline)``."""
        verdicts = [r.met_deadline for r in self.records.values()
                    if r.met_deadline is not None]
        return sum(verdicts), len(verdicts)

    def summary_row(self) -> dict:
        """One benchmark-table row (E2's columns)."""
        met, slo_total = self.deadline_stats()
        turnarounds = [r.turnaround for r in self.records.values()]
        return {
            "strategy": self.strategy,
            "makespan_s": self.makespan,
            "bytes_moved": self.bytes_moved,
            "energy_j": self.energy_j,
            "cost_usd": self.total_usd,
            "mean_turnaround_s": summarize(turnarounds).mean,
            "slo_met": f"{met}/{slo_total}" if slo_total else "-",
        }
