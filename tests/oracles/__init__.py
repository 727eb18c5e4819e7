"""Frozen reference implementations the production paths are checked against.

Each oracle is a copy of a mechanism as it shipped before a faster one
replaced it in ``src/``, or a patch that turns a fast path off so the
general one beside it runs alone, or a check that only tests run
(``link_loads``). Differential tests and the microbenchmarks run
the production path and the oracle side by side and demand identical
results; nothing in ``repro`` imports from here. Each mechanism has one
frozen copy: ``seed_kernel``, ``fair_share`` and ``dispatch`` also serve
``benchmarks/bench_kernel.py``, ``bench_fairness.py`` and
``bench_scheduler.py``.
"""

from tests.oracles.controlplane import stepwise
from tests.oracles.dispatch import scalar_dispatch, scalar_engine
from tests.oracles.fair_share import scalar_max_min
from tests.oracles.heap_queue import HeapEventQueue
from tests.oracles.raft_node import frozen_raft
from tests.oracles.seed_kernel import RefSimulator
from tests.oracles.staging import per_input_staging

__all__ = ["HeapEventQueue", "RefSimulator", "frozen_raft",
           "per_input_staging", "scalar_dispatch", "scalar_engine",
           "scalar_max_min", "stepwise"]
