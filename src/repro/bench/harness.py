"""Shared experiment-result plumbing."""

from __future__ import annotations

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
