"""The span: one timed interval in a run's causal structure."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """A begin/end interval with identity, lineage, and attributes.

    Spans form trees through ``parent_id``; a span with ``end_s is None``
    is still open. An *instant* span (``instant=True``) marks a point
    event — scaling decisions, memo hits, fault transitions — and has
    ``end_s == begin_s`` by construction.

    ``status`` is ``"ok"`` unless the instrumented operation ended
    abnormally (``"interrupted"``, ``"failed"``).
    """

    name: str
    category: str
    begin_s: float
    span_id: int
    parent_id: int | None = None
    end_s: float | None = None
    status: str = "ok"
    instant: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.begin_s
