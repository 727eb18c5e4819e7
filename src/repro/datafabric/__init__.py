"""Data fabric: datasets, replica catalog, managed transfer, caching.

The keynote's data-movement substrate is Globus: named datasets with
replicas at multiple sites, moved by a managed service that retries on
failure and verifies integrity. This package reproduces those semantics
on top of the flow-level network simulator, plus the site caches and
staging policies the edge experiments (E6) evaluate.
"""

from repro.datafabric.dataset import Dataset, Replica
from repro.datafabric.catalog import ReplicaCatalog
from repro.datafabric.transfer import TransferService, TransferResult
from repro.datafabric.cache import Cache, EvictionPolicy
from repro.datafabric.staging import StagedReader

__all__ = [
    "Dataset",
    "Replica",
    "ReplicaCatalog",
    "TransferService",
    "TransferResult",
    "Cache",
    "EvictionPolicy",
    "StagedReader",
]
