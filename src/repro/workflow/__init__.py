"""Dataflow workflow engine (Parsl-flavoured).

Two halves share one vocabulary:

- a **declarative DAG model** (:class:`TaskSpec`, :class:`WorkflowDAG`)
  consumed by the continuum scheduler for *simulated* execution, and
- a **real execution kernel** (:class:`DataFlowKernel` with
  :class:`AppFuture`, thread/serial executors, memoization and
  checkpointing) that runs actual Python callables with Parsl-style
  implicit dataflow: pass a future as an argument and the dependency
  edge is inferred.
"""

from repro.workflow.task import TaskSpec, TaskState
from repro.workflow.dag import WorkflowDAG
from repro.workflow.futures import AppFuture
from repro.workflow.executors import SerialExecutor, ThreadExecutor
from repro.workflow.memoization import Memoizer
from repro.workflow.checkpoint import load_checkpoint, save_checkpoint
from repro.workflow.serialize import (
    dag_from_dict,
    dag_to_dict,
    load_workload,
    save_workload,
)
from repro.workflow.dataflow import DataFlowKernel

__all__ = [
    "TaskSpec",
    "TaskState",
    "WorkflowDAG",
    "AppFuture",
    "SerialExecutor",
    "ThreadExecutor",
    "Memoizer",
    "load_checkpoint",
    "save_checkpoint",
    "dag_to_dict",
    "dag_from_dict",
    "save_workload",
    "load_workload",
    "DataFlowKernel",
]
