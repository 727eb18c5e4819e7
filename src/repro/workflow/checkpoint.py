"""Memoization-table checkpointing.

A checkpoint file makes workflow restarts cheap: completed task results
survive process death, so a re-run only executes the remaining frontier.
The format is a pickle of the memo table with a version header; loading
is tolerant of a missing file (fresh start) but strict about corruption.
"""

from __future__ import annotations

import os
import pickle

from repro.errors import WorkflowError
from repro.utils.atomic import atomic_open

# 2: TaskSpec and Dataset have slots. Version 1 pickled them from their
# instance __dict__, which a slotted class loads with every field
# holding its own name, so version 1 files are refused.
_FORMAT_VERSION = 2


def save_checkpoint(path: str, table: dict) -> None:
    """Atomically and durably write the memo table to ``path`` (see
    :func:`~repro.utils.atomic.atomic_open`), streaming the pickle."""
    payload = {"version": _FORMAT_VERSION, "results": table}
    with atomic_open(path) as handle:
        pickle.dump(payload, handle, protocol=4)


def load_checkpoint(path: str) -> dict:
    """Read a memo table; a missing file yields an empty table."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception as exc:
        raise WorkflowError(f"corrupt checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or "results" not in payload:
        raise WorkflowError(f"corrupt checkpoint {path!r}: bad structure")
    if payload.get("version") != _FORMAT_VERSION:
        raise WorkflowError(
            f"checkpoint {path!r} has version {payload.get('version')}, "
            f"expected {_FORMAT_VERSION}"
        )
    return payload["results"]
