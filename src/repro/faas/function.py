"""Function definitions and the central registry."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaaSError
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class FunctionDef:
    """A registered function.

    Attributes
    ----------
    name:
        Registry-unique identifier.
    work:
        Compute demand in work units (a site with ``effective_speed`` s
        executes it in ``work / s`` seconds per request).
    kind:
        Task kind used to match site specializations (e.g.
        ``"dnn-inference"`` runs faster on a GPU endpoint).
    request_bytes / response_bytes:
        Default payload sizes for the network request/response legs.
    batch_overhead_work:
        Fixed extra work per *batch* when invoked through a batcher
        (model-load/setup amortized across batched requests).
    """

    name: str
    work: float
    kind: str = "generic"
    request_bytes: float = 1024.0
    response_bytes: float = 1024.0
    batch_overhead_work: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise FaaSError("function name must be non-empty")
        check_non_negative("work", self.work)
        check_non_negative("request_bytes", self.request_bytes)
        check_non_negative("response_bytes", self.response_bytes)
        check_non_negative("batch_overhead_work", self.batch_overhead_work)


class FunctionRegistry:
    """The shared registry every endpoint resolves functions against."""

    def __init__(self) -> None:
        self._functions: dict[str, FunctionDef] = {}

    def register(self, fn: FunctionDef) -> FunctionDef:
        existing = self._functions.get(fn.name)
        if existing is not None and existing != fn:
            raise FaaSError(
                f"function {fn.name!r} already registered with a different "
                f"definition"
            )
        self._functions[fn.name] = fn
        return fn

    def get(self, name: str) -> FunctionDef:
        try:
            return self._functions[name]
        except KeyError:
            raise FaaSError(f"unknown function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)
