"""Per-transfer bookkeeping record."""

from __future__ import annotations

from dataclasses import dataclass

from repro.continuum.topology import PathInfo


@dataclass
class Flow:
    """One in-flight (or completed) transfer.

    A flow's live rate, remaining bytes and drain time are kept only in
    the network's per-column arrays. ``finish_time`` is set when the
    last byte arrives (transmission done + propagation latency).
    """

    flow_id: int
    src: str
    dst: str
    size_bytes: float
    path: PathInfo
    start_time: float
    finish_time: float | None = None

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def duration(self) -> float | None:
        """Completion time minus start, or None while in flight."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"{self.size_bytes:.3g}B in flight"
        return f"<Flow {self.flow_id} {self.src}->{self.dst} {state}>"
