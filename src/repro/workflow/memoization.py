"""Result memoization keyed on function identity + argument digest.

Parsl calls this "app caching": re-submitting a pure function with
arguments already seen returns the stored result without executing.
Keys digest the pickled arguments with SHA-256; unpicklable arguments
make a task unmemoizable (executed every time) rather than an error.
"""

from __future__ import annotations

import hashlib
import pickle
import threading


def make_key(func_name: str, args: tuple, kwargs: dict) -> str | None:
    """Stable digest of an invocation, or None when unhashable."""
    try:
        payload = pickle.dumps((args, sorted(kwargs.items())), protocol=4)
    except Exception:
        return None
    return func_name + ":" + hashlib.sha256(payload).hexdigest()


class Memoizer:
    """Thread-safe result table."""

    def __init__(self) -> None:
        self._results: dict[str, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.lookups = 0

    def lookup(self, key: str | None):
        """Return ``(found, value)``; ``found`` is False for None keys."""
        if key is None:
            return False, None
        with self._lock:
            self.lookups += 1
            if key in self._results:
                self.hits += 1
                return True, self._results[key]
        return False, None

    def store(self, key: str | None, value) -> None:
        if key is None:
            return
        with self._lock:
            self._results[key] = value

    def export(self) -> dict[str, object]:
        """Snapshot for checkpointing."""
        with self._lock:
            return dict(self._results)

    def load(self, table: dict[str, object]) -> None:
        with self._lock:
            self._results.update(table)
