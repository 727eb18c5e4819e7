"""Byte-capacity caches with pluggable eviction policies.

Used at edge/fog sites to keep hot datasets close to where work runs.
E6 compares the policies on skewed streaming workloads.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

from repro.datafabric.dataset import Dataset
from repro.errors import DataFabricError
from repro.utils.validation import check_positive


class EvictionPolicy(Enum):
    """Which resident dataset to evict when space is needed."""

    LRU = "lru"        # least recently used
    LFU = "lfu"        # least frequently used (ties: least recent)
    FIFO = "fifo"      # oldest admission
    LARGEST = "largest"  # biggest first (greedy space recovery)

    @classmethod
    def parse(cls, value) -> "EvictionPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise DataFabricError(f"unknown eviction policy {value!r}") from None


@dataclass
class _Entry:
    dataset: Dataset
    admitted_seq: int
    last_used_seq: int
    uses: int


class Cache:
    """A single site's dataset cache.

    ``lookup`` answers hit/miss (and refreshes recency); ``admit`` inserts
    a dataset, evicting per policy until it fits. Datasets larger than the
    whole cache are rejected by ``admit`` (returned as not-admitted) —
    streaming them through without caching is the caller's job.
    """

    def __init__(self, capacity_bytes: float, policy: EvictionPolicy | str = "lru"):
        self.capacity_bytes = check_positive("capacity_bytes", capacity_bytes)
        self.policy = EvictionPolicy.parse(policy)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._seq = 0
        self.used_bytes = 0.0
        # stats
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_evicted = 0.0

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def _recompute_used(self) -> None:
        """Re-derive ``used_bytes`` from the resident entries.

        Incremental ``+=``/``-=`` float accounting drifts over long
        admit/drop/evict histories and can leave a phantom residue that
        makes an exact-capacity admit try to evict from an empty cache.
        ``math.fsum`` is exactly rounded, so the figure depends only on
        what is resident — never on the mutation history.
        """
        self.used_bytes = math.fsum(
            e.dataset.size_bytes for e in self._entries.values()
        )

    def _would_overflow(self, incoming: float) -> bool:
        """Exact fit check for an incoming size.

        ``used_bytes + incoming`` rounds once more and can spuriously
        exceed an exact-capacity budget that the true sum fits; one
        ``fsum`` over residents plus the newcomer cannot.
        """
        prospective = math.fsum(
            [*(e.dataset.size_bytes for e in self._entries.values()),
             incoming]
        )
        return prospective > self.capacity_bytes

    # -- queries -----------------------------------------------------------------
    def lookup(self, name: str) -> bool:
        """True on hit (refreshes recency/frequency); False on miss."""
        entry = self._entries.get(name)
        if entry is None:
            self.misses += 1
            return False
        entry.last_used_seq = self._tick()
        entry.uses += 1
        self.hits += 1
        return True

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def resident(self) -> list[str]:
        return list(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- mutation ------------------------------------------------------------------
    def admit(self, dataset: Dataset) -> bool:
        """Insert ``dataset``, evicting as needed. Returns False (and
        caches nothing) if the dataset alone exceeds capacity."""
        if dataset.name in self._entries:
            entry = self._entries[dataset.name]
            entry.last_used_seq = self._tick()
            entry.uses += 1
            return True
        if dataset.size_bytes > self.capacity_bytes:
            return False
        while self._would_overflow(dataset.size_bytes):
            self._evict_one()
        seq = self._tick()
        self._entries[dataset.name] = _Entry(dataset, seq, seq, 1)
        self._recompute_used()
        return True

    def drop(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry is None:
            raise DataFabricError(f"dataset {name!r} not in cache")
        self._recompute_used()

    def _evict_one(self) -> None:
        if not self._entries:
            raise DataFabricError("cache accounting error: nothing to evict")
        if self.policy is EvictionPolicy.LRU:
            victim = min(self._entries.values(), key=lambda e: e.last_used_seq)
        elif self.policy is EvictionPolicy.LFU:
            victim = min(
                self._entries.values(), key=lambda e: (e.uses, e.last_used_seq)
            )
        elif self.policy is EvictionPolicy.FIFO:
            victim = min(self._entries.values(), key=lambda e: e.admitted_seq)
        else:  # LARGEST
            victim = max(
                self._entries.values(),
                key=lambda e: (e.dataset.size_bytes, -e.last_used_seq),
            )
        del self._entries[victim.dataset.name]
        self._recompute_used()
        self.evictions += 1
        self.bytes_evicted += victim.dataset.size_bytes

    def emit_metrics(self, registry, *, site: str = "") -> None:
        """Re-emit this cache's stats through a metrics registry as
        site-labeled counters/gauges (no-op when disabled)."""
        labels = {"site": site, "policy": self.policy.value}
        registry.emit((
            ("datafabric_cache_hits_total", "Cache lookups served locally",
             self.hits),
            ("datafabric_cache_misses_total",
             "Cache lookups that went to the network", self.misses),
            ("datafabric_cache_evictions_total",
             "Entries evicted to make room", self.evictions),
            ("datafabric_cache_evicted_bytes_total",
             "Bytes evicted to make room", self.bytes_evicted),
        ), labels)
        registry.emit((
            ("datafabric_cache_used_bytes", "Resident bytes at emission time",
             self.used_bytes),
            ("datafabric_cache_hit_rate", "Lifetime hit rate at emission time",
             self.hit_rate),
        ), labels, kind="gauge")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cache {self.policy.value} {self.used_bytes:.3g}/"
            f"{self.capacity_bytes:.3g}B items={len(self._entries)}>"
        )
