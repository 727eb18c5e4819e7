"""Workflow (de)serialization: DAGs as data.

Like topologies (:mod:`repro.continuum.serialize`), declarative
workflows round-trip through plain dicts/JSON so experiment inputs can
live in version control. Only :class:`TaskSpec` DAGs serialize — real
callables (the DataFlowKernel side) don't belong in config files.
"""

from __future__ import annotations

import json

from repro.datafabric.dataset import Dataset
from repro.errors import WorkflowError
from repro.utils.atomic import write_atomic
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskSpec

_FORMAT_VERSION = 1


def task_to_dict(task: TaskSpec) -> dict:
    data = {
        "name": task.name,
        "work": task.work,
        "kind": task.kind,
        "inputs": list(task.inputs),
        "outputs": [
            {"name": d.name, "size_bytes": d.size_bytes, "kind": d.kind}
            for d in task.outputs
        ],
        "after": list(task.after),
    }
    if task.deadline_s is not None:
        data["deadline_s"] = task.deadline_s
    if task.pinned_site is not None:
        data["pinned_site"] = task.pinned_site
    return data


def _dataset_from_dict(data: dict) -> Dataset:
    return Dataset(data["name"], data["size_bytes"],
                   kind=data.get("kind", "data"))


def task_from_dict(data: dict) -> TaskSpec:
    if not isinstance(data, dict):
        raise WorkflowError(f"task entry must be an object, got {data!r}")
    try:
        return TaskSpec(
            name=data["name"],
            work=data["work"],
            kind=data.get("kind", "generic"),
            inputs=tuple(data.get("inputs", ())),
            outputs=tuple(_dataset_from_dict(d)
                          for d in data.get("outputs", ())),
            after=tuple(data.get("after", ())),
            deadline_s=data.get("deadline_s"),
            pinned_site=data.get("pinned_site"),
        )
    except KeyError as exc:
        raise WorkflowError(f"task dict missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise WorkflowError(f"task {data.get('name')!r}: {exc}") from None


def dag_to_dict(dag: WorkflowDAG) -> dict:
    """Plain-data snapshot (JSON-safe); insertion order preserved so the
    rebuild sees dependencies before dependents."""
    return {
        "version": _FORMAT_VERSION,
        "name": dag.name,
        "tasks": [task_to_dict(t) for t in dag.tasks],
    }


def dag_from_dict(data: dict) -> WorkflowDAG:
    """Rebuild a workflow from its dict form; validates structure."""
    if not isinstance(data, dict) or "tasks" not in data:
        raise WorkflowError("workflow dict missing 'tasks'")
    if not isinstance(data["tasks"], list):
        raise WorkflowError("workflow 'tasks' must be a list")
    if data.get("version", _FORMAT_VERSION) != _FORMAT_VERSION:
        raise WorkflowError(
            f"unsupported workflow format version {data.get('version')}"
        )
    dag = WorkflowDAG(data.get("name", "workflow"))
    for task_data in data["tasks"]:
        dag.add_task(task_from_dict(task_data))
    dag.validate()
    return dag


def save_workload(path: str, dag: WorkflowDAG,
                  externals: list[Dataset] | None = None) -> None:
    """Write a complete workload: the DAG plus its external input
    dataset definitions (what the DAG consumes but does not produce).
    ``load_workload`` restores both halves, which is what a scheduler
    invocation needs."""
    data = dag_to_dict(dag)
    data["externals"] = [
        {"name": d.name, "size_bytes": d.size_bytes, "kind": d.kind}
        for d in (externals or [])
    ]
    write_atomic(path, json.dumps(data, indent=1))


def load_workload(path: str) -> tuple[WorkflowDAG, list[Dataset]]:
    """Read back ``(dag, externals)`` written by :func:`save_workload`.

    Validates that the stored externals cover every dataset the DAG
    consumes without producing.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise WorkflowError(f"no workload file at {path!r}") from None
    except json.JSONDecodeError as exc:
        raise WorkflowError(f"corrupt workload file {path!r}: {exc}") from exc
    dag = dag_from_dict(data)
    try:
        externals = [_dataset_from_dict(d) for d in data.get("externals", [])]
    except KeyError as exc:
        raise WorkflowError(
            f"workload file {path!r}: external dataset missing field "
            f"{exc}") from None
    except (TypeError, ValueError) as exc:
        raise WorkflowError(
            f"workload file {path!r}: bad external dataset: {exc}") from None
    missing = dag.external_inputs() - {d.name for d in externals}
    if missing:
        raise WorkflowError(
            f"workload file {path!r} lacks external dataset definitions "
            f"for {sorted(missing)}"
        )
    return dag, externals
