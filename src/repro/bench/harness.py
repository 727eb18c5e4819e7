"""Shared experiment-result plumbing."""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro.utils.tables import ascii_table


@dataclass
class ExperimentResult:
    """One experiment's regenerated table/series."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def row(self, **fields) -> dict:
        self.rows.append(fields)
        return fields


def render(result: ExperimentResult) -> str:
    """ASCII rendering: the table plus its notes."""
    parts = [ascii_table(result.rows,
                         title=f"{result.experiment_id}: {result.title}")]
    for note in result.notes:
        parts.append(f"  - {note}")
    return "\n".join(parts)


def save_rendered(text: str, filename: str, directory: str = "results") -> str:
    """Atomically and durably write a rendered table; returns its path.

    Same temp-file + fsync + :func:`os.replace` discipline as workflow
    checkpoints: a crashed writer (e.g. a parallel bench worker killed
    mid-save) can never leave a truncated ``results/eN.txt`` — readers
    see either the old file or the complete new one.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".txt.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
