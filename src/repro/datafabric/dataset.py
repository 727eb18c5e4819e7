"""Named datasets and their replicas."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DataFabricError
from repro.utils.validation import check_non_negative


@dataclass(frozen=True, slots=True)
class Dataset:
    """An immutable named blob of known size.

    Immutability matches the scientific-data model (Globus, light-source
    frames): new results are new datasets, never in-place updates, which
    is what makes replica caching sound.

    ``metadata`` is free-form annotation for callers; the simulator
    never reads it. It defaults to ``None`` rather than an empty dict,
    so the many datasets a large workflow defines carry no container
    each. It takes no part in equality or hashing.
    """

    name: str
    size_bytes: float
    kind: str = "data"
    metadata: dict | None = field(default=None, compare=False, hash=False)

    def __post_init__(self):
        check_non_negative("size_bytes", self.size_bytes)
        if not self.name:
            raise DataFabricError("dataset name must be non-empty")


@dataclass(frozen=True)
class Replica:
    """A copy of a dataset at a site, stamped with creation time."""

    dataset: Dataset
    site: str
    created_at: float = 0.0
