"""Workflow DAGs: dataflow-derived dependency graphs over task specs.

Dependencies are primarily *inferred from data*: if task B reads a dataset
task A produces, B depends on A. Control-only edges (``after=``) add
ordering without data. The DAG validates acyclicity and single-producer
discipline, and offers the graph analyses (topological order, levels,
critical path, bottom levels) the placement strategies need.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable

from repro.errors import WorkflowError
from repro.workflow.task import TaskSpec


def _drop_last(adjacency: dict[str, list[str]], key: str) -> None:
    """Remove ``key``'s newest edge and an entry it leaves empty."""
    edges = adjacency[key]
    edges.pop()
    if not edges:
        del adjacency[key]


class WorkflowDAG:
    """A named, validated collection of :class:`TaskSpec`.

    The indexes hold only what wiring and the analyses need, so a DAG
    costs little beyond its tasks. ``_consumers`` lists, in insertion
    order, the readers of datasets that have no producer yet: a producer
    pops the readers waiting on its outputs and wires them, and later
    readers find it through ``_producer``. What is left are the external
    inputs. ``_succ`` and ``_pred`` hold entries only for tasks that
    have successors or predecessors, each a list in edge insertion
    order. Every edge one :meth:`add_task` adds touches the new task,
    so an edge it already added is the last entry of the other
    endpoint's list: that one comparison keeps the lists free of
    duplicates, and a rejected task's edges are those last entries.
    """

    def __init__(self, name: str = "workflow"):
        self.name = name
        self._tasks: dict[str, TaskSpec] = {}
        self._producer: dict[str, str] = {}   # dataset name -> task name
        # dataset with no producer yet -> its readers, in insertion order
        self._consumers: dict[str, list[str]] = {}
        # task -> successors and task -> predecessors, each in edge
        # insertion order; tasks without edges have no entry
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}

    # -- construction ------------------------------------------------------------
    def add_task(self, task: TaskSpec) -> TaskSpec:
        """Insert a task; dataflow edges to already-known producers and
        consumers are wired automatically. Cycles are rejected on the
        spot so the DAG is always valid."""
        name = task.name
        if name in self._tasks:
            raise WorkflowError(f"duplicate task name {name!r}")
        for dep in task.after:
            if dep not in self._tasks:
                raise WorkflowError(
                    f"task {name!r} declares after={dep!r} which does "
                    f"not exist (add dependencies first)"
                )
        for out in task.output_names:
            owner = self._producer.get(out)
            if owner is not None:
                raise WorkflowError(
                    f"dataset {out!r} produced by both {owner!r} and "
                    f"{name!r}"
                )
        self._tasks[name] = task
        for out in task.output_names:
            self._producer[out] = name
        for inp in task.inputs:
            producer = self._producer.get(inp)
            if producer is None:
                self._consumers.setdefault(inp, []).append(name)
            elif producer != name:
                self._add_edge(producer, name, self._succ, self._pred)
        for dep in task.after:
            self._add_edge(dep, name, self._succ, self._pred)
        # wire consumers added before this producer existed (index lookup,
        # not a scan — DAG construction stays near-linear); the entries
        # are dropped only once the task is accepted
        waiting = [self._consumers[out] for out in task.output_names
                   if out in self._consumers]
        for consumers in waiting:
            for consumer in consumers:
                self._add_edge(consumer, name, self._pred, self._succ)
        # The DAG was acyclic before, so a cycle must pass through the new
        # task: it needs incoming edges and a successor that reaches back.
        if name in self._pred and name in self._succ \
                and self._reaches(self._succ[name], name):
            # roll back before raising, every index exactly as it was
            for p in self._pred.pop(name):
                _drop_last(self._succ, p)
            for q in self._succ.pop(name):
                _drop_last(self._pred, q)
            for inp in task.inputs:
                if inp not in self._producer:   # the task waited on it
                    consumers = self._consumers[inp]
                    consumers.pop()
                    if not consumers:
                        del self._consumers[inp]
            for out in task.output_names:
                del self._producer[out]
            del self._tasks[name]
            raise WorkflowError(f"adding task {name!r} creates a cycle")
        if waiting:
            for out in task.output_names:
                self._consumers.pop(out, None)
        return task

    @staticmethod
    def _add_edge(old: str, new: str, of_old: dict[str, list[str]],
                  of_new: dict[str, list[str]]) -> None:
        """Link task ``old`` to the task being added, ``new``: append
        ``new`` to ``of_old[old]`` and ``old`` to ``of_new[new]``,
        unless this insertion already did."""
        edges = of_old.get(old)
        if edges is None:
            of_old[old] = [new]
        elif edges[-1] != new:
            edges.append(new)
        else:
            return
        of_new.setdefault(new, []).append(old)

    def _reaches(self, starts: Iterable[str], target: str) -> bool:
        """True if ``target`` is reachable from any of ``starts``."""
        stack = list(starts)
        seen = set(stack)
        while stack:
            v = stack.pop()
            if v == target:
                return True
            for w in self._succ.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    # -- lookup --------------------------------------------------------------------
    def task(self, name: str) -> TaskSpec:
        try:
            return self._tasks[name]
        except KeyError:
            raise WorkflowError(f"unknown task {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def task_names(self) -> list[str]:
        return list(self._tasks)

    @property
    def tasks(self) -> list[TaskSpec]:
        return list(self._tasks.values())

    def producer_of(self, dataset_name: str) -> str | None:
        """Task producing ``dataset_name``, or None if external."""
        return self._producer.get(dataset_name)

    def dependencies(self, name: str) -> list[str]:
        self.task(name)
        return sorted(self._pred.get(name, ()))

    def dependents(self, name: str) -> list[str]:
        self.task(name)
        return sorted(self._succ.get(name, ()))

    def external_inputs(self) -> set[str]:
        """Dataset names read by tasks but produced by none — these must
        exist in the replica catalog before the workflow starts."""
        return set(self._consumers)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._succ.values()))

    @property
    def total_work(self) -> float:
        return sum(t.work for t in self._tasks.values())

    @property
    def total_output_bytes(self) -> float:
        return sum(t.output_bytes for t in self._tasks.values())

    # -- analyses ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise unless non-empty (acyclicity is maintained on insert)."""
        if not self._tasks:
            raise WorkflowError(f"workflow {self.name!r} has no tasks")

    def topological_order(self) -> list[str]:
        """Deterministic topological order (ties broken by insertion):
        Kahn's algorithm, always taking the earliest-inserted ready task."""
        names = list(self._tasks)
        index = {name: i for i, name in enumerate(names)}
        pred = self._pred
        indegree = {name: len(pred.get(name, ())) for name in names}
        ready = [i for i, name in enumerate(names) if not indegree[name]]
        order = []
        while ready:
            name = names[heapq.heappop(ready)]
            order.append(name)
            for child in self._succ.get(name, ()):
                indegree[child] -= 1
                if not indegree[child]:
                    heapq.heappush(ready, index[child])
        return order

    def levels(self) -> list[list[str]]:
        """Tasks grouped by dependency depth (level 0 = sources)."""
        depth: dict[str, int] = {}
        for name in self.topological_order():
            preds = self._pred.get(name, ())
            depth[name] = 1 + max((depth[p] for p in preds), default=-1)
        n_levels = max(depth.values(), default=-1) + 1
        grouped: list[list[str]] = [[] for _ in range(n_levels)]
        for name, d in depth.items():
            grouped[d].append(name)
        return grouped

    def critical_path(
        self, time_of: Callable[[TaskSpec], float] | None = None
    ) -> tuple[float, list[str]]:
        """Longest path through the DAG under ``time_of`` (defaults to
        ``task.work``). Returns ``(length, task names along the path)``.
        This is the classic lower bound on makespan with infinite
        resources and free communication."""
        self.validate()
        if time_of is None:
            time_of = lambda t: t.work  # noqa: E731 - tiny default
        finish: dict[str, float] = {}
        best_pred: dict[str, str | None] = {}
        for name in self.topological_order():
            task = self._tasks[name]
            preds = self._pred.get(name, ())
            if preds:
                p = max(preds, key=lambda q: finish[q])
                start = finish[p]
                best_pred[name] = p
            else:
                start = 0.0
                best_pred[name] = None
            finish[name] = start + time_of(task)
        end = max(finish, key=lambda n: finish[n])
        path = [end]
        while best_pred[path[-1]] is not None:
            path.append(best_pred[path[-1]])
        path.reverse()
        return finish[end], path

    def bottom_levels(
        self, time_of: Callable[[TaskSpec], float] | None = None
    ) -> dict[str, float]:
        """HEFT-style upward ranks: longest remaining path from each task
        (inclusive) to any sink. Used to prioritize critical tasks."""
        if time_of is None:
            time_of = lambda t: t.work  # noqa: E731 - tiny default
        rank: dict[str, float] = {}
        for name in reversed(self.topological_order()):
            succs = self._succ.get(name, ())
            tail = max((rank[s] for s in succs), default=0.0)
            rank[name] = time_of(self._tasks[name]) + tail
        return rank

    def subgraph_counts(self) -> dict[str, int]:
        """Quick shape summary: sources, sinks, max width."""
        sources = len(self._tasks) - len(self._pred)
        sinks = len(self._tasks) - len(self._succ)
        width = max((len(level) for level in self.levels()), default=0)
        return {"sources": sources, "sinks": sinks, "max_width": width}

    def extend(self, tasks: Iterable[TaskSpec]) -> "WorkflowDAG":
        """Bulk-add; returns self for chaining."""
        for task in tasks:
            self.add_task(task)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WorkflowDAG {self.name!r} tasks={len(self._tasks)} "
            f"edges={self.edge_count}>"
        )
