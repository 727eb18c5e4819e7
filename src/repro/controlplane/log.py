"""Replicated-log primitives: commands, entries, snapshots.

The control plane replicates *metadata mutations* — replica add/drop
and endpoint liveness — as a leader-ordered log. Commands are plain
data (op name + positional args) so entries hash, compare, and copy
trivially; the applied state machine lives in
:mod:`repro.controlplane.state`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ControlPlaneError

#: Operations a log entry may carry. ``noop`` is appended by a freshly
#: elected leader so entries from earlier terms become committable
#: (Raft §5.4.2); it does not touch catalog state.
COMMAND_OPS = (
    "noop",
    "register",
    "add_replica",
    "drop_replica",
    "endpoint_up",
    "endpoint_down",
)


@dataclass(frozen=True)
class Command:
    """One metadata mutation, as plain data.

    ``args`` by op:
      - ``noop``: ``()``
      - ``register``: ``(name, size_bytes, kind)``
      - ``add_replica``: ``(name, site, created_at)``
      - ``drop_replica``: ``(name, site)``
      - ``endpoint_up`` / ``endpoint_down``: ``(site,)``
    """

    op: str
    args: tuple = ()

    def __post_init__(self):
        if self.op not in COMMAND_OPS:
            raise ControlPlaneError(f"unknown command op {self.op!r}")


NOOP = Command("noop")


class LogEntry(NamedTuple):
    index: int
    term: int
    command: Command


class Snapshot:
    """A compacted prefix: the state-machine image at ``last_index``.

    ``terms`` holds ``(first_index, term)`` runs over the compacted
    entries, so a node can still tell which term committed an index it
    no longer holds; it is empty when the snapshot does not carry them.

    A snapshot made by :meth:`after` is lazy. It keeps the previous
    snapshot plus the commands compaction discarded, and builds its image
    on the first read of :attr:`state`, by replaying those commands onto
    the previous image; the image is then cached and the chain dropped.
    Nodes compact often but ship an image only to a follower that fell
    behind, so most images are never built.
    """

    __slots__ = ("last_index", "last_term", "terms", "chain_len",
                 "_doc", "_base", "_commands")

    def __init__(self, last_index: int, last_term: int, state: dict | None,
                 terms: tuple[tuple[int, int], ...] = ()):
        self.last_index = last_index
        self.last_term = last_term
        self.terms = terms
        self.chain_len = 0  # bounds the commands its chain retains
        self._doc = state
        self._base: Snapshot | None = None
        self._commands: tuple[Command, ...] = ()

    @classmethod
    def after(cls, base: Snapshot | None,
              entries: tuple[LogEntry, ...]) -> Snapshot:
        """The lazy snapshot of ``base`` followed by ``entries`` (the
        contiguous run compaction discards; ``base`` is ``None`` when
        they start at index 1)."""
        runs = list(base.terms) if base is not None else []
        for entry in entries:
            if not runs or runs[-1][1] != entry.term:
                runs.append((entry.index, entry.term))
        last = entries[-1]
        snap = cls(last.index, last.term, None, tuple(runs))
        snap._base = base
        snap._commands = tuple(entry.command for entry in entries)
        snap.chain_len = len(entries)
        if base is not None:
            snap.chain_len += base.chain_len
        return snap

    @property
    def state(self) -> dict:
        """The ``ControlState.to_snapshot()`` document at ``last_index``."""
        if self._doc is None:
            # state.py imports this module for Command
            from repro.controlplane.state import ControlState

            chain, snap = [], self
            while snap is not None and snap._doc is None:
                chain.append(snap)
                snap = snap._base
            image = (ControlState() if snap is None
                     else ControlState.from_snapshot(snap._doc))
            for link in reversed(chain):
                first = link.last_index - len(link._commands) + 1
                for index, command in enumerate(link._commands, first):
                    image.apply(command, index)
            self._doc = image.to_snapshot()
            self._base, self._commands, self.chain_len = None, (), 0
        return self._doc


class ReplicatedLog:
    """One node's log: a snapshot base plus the live entry suffix.

    Indices are 1-based as in the Raft paper; index 0 is the empty-log
    sentinel with term 0. After compaction, entries at or below
    ``base_index`` exist only inside the snapshot. ``last_index`` and
    ``last_term`` are fields that every mutation keeps current, since
    every message reads them.
    """

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        self.base_index = 0
        self.base_term = 0
        self.last_index = 0
        self.last_term = 0
        self.snapshot: Snapshot | None = None

    # -- shape -------------------------------------------------------------------
    def _sync_last(self) -> None:
        """Refresh ``last_index``/``last_term`` from the entries, or
        from the base when none are left."""
        if self._entries:
            last = self._entries[-1]
            self.last_index, self.last_term = last.index, last.term
        else:
            self.last_index, self.last_term = self.base_index, self.base_term

    def __len__(self) -> int:
        return len(self._entries)

    def term_at(self, index: int) -> int | None:
        """Term of ``index``, ``None`` when the entry is unknown (past
        the end, or compacted away below the snapshot base)."""
        if index == self.base_index:
            return self.base_term
        if index < self.base_index or index > self.last_index:
            return None
        return self._entries[index - self.base_index - 1].term

    def known_term(self, index: int) -> int | None:
        """Term of ``index`` like :meth:`term_at`, but compacted indices
        are answered from the snapshot's term runs (``None`` when it
        carries none for ``index``)."""
        if index >= self.base_index:
            return self.term_at(index)
        runs = self.snapshot.terms if self.snapshot is not None else ()
        k = bisect_right(runs, (index, math.inf)) - 1
        return runs[k][1] if k >= 0 else None

    def entry(self, index: int) -> LogEntry:
        if index <= self.base_index or index > self.last_index:
            raise ControlPlaneError(f"log entry {index} not available")
        return self._entries[index - self.base_index - 1]

    # -- mutation -----------------------------------------------------------------
    def append(self, term: int, command: Command) -> LogEntry:
        self.last_index += 1
        self.last_term = term
        entry = LogEntry(self.last_index, term, command)
        self._entries.append(entry)
        return entry

    def entries_from(self, index: int) -> tuple[LogEntry, ...]:
        """Entries at ``index`` and beyond (empty when up to date).
        Raises when ``index`` has been compacted away — the caller must
        fall back to snapshot installation."""
        if index <= self.base_index:
            raise ControlPlaneError(
                f"entries from {index} compacted (base {self.base_index})"
            )
        return tuple(self._entries[index - self.base_index - 1:])

    def truncate_from(self, index: int) -> None:
        """Drop ``index`` and everything after it (conflict repair)."""
        if index <= self.base_index:
            raise ControlPlaneError(
                f"cannot truncate into compacted prefix at {index}"
            )
        del self._entries[index - self.base_index - 1:]
        self._sync_last()

    def compact(self, snapshot: Snapshot) -> None:
        """Discard entries covered by ``snapshot``, keeping the suffix."""
        if snapshot.last_index <= self.base_index:
            return
        keep = snapshot.last_index - self.base_index
        self._entries = self._entries[keep:]
        self.base_index = snapshot.last_index
        self.base_term = snapshot.last_term
        self.snapshot = snapshot
        self._sync_last()

    def install(self, snapshot: Snapshot) -> None:
        """Replace the whole log with ``snapshot`` (follower catch-up
        when the leader has compacted past our tail)."""
        self._entries = []
        self.base_index = snapshot.last_index
        self.base_term = snapshot.last_term
        self.snapshot = snapshot
        self._sync_last()
