"""Frozen reference implementations the production paths are checked against.

Each oracle is a copy of a mechanism as it shipped before a faster one
replaced it in ``src/``. Differential tests and the microbenchmarks run
the production path and the oracle side by side and demand identical
results; nothing in ``repro`` imports from here.
"""

from tests.oracles.dispatch import scalar_dispatch, scalar_engine
from tests.oracles.heap_queue import HeapEventQueue

__all__ = ["HeapEventQueue", "scalar_dispatch", "scalar_engine"]
