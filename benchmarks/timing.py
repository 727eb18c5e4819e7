"""Timing rules shared by the perf-guard benchmarks.

A ``best_of`` timing is the best of at least ``repeat`` calls and of
at least ``MIN_TIMED_S`` seconds of calls (at most ``MAX_CALLS``), so
that a sub-millisecond call gets as many tries as a slow one gets time.
The ~1.5 ms ``max_min_fair_rates_1k`` solve timed as a best of 2 read
5.29x-9.55x over ten quick runs on one host.

``timed_rounds`` keeps every round instead, for a guard that gates on
the median of per-round ratios: one burst of host noise then moves one
round, not the verdict.
"""

from __future__ import annotations

import gc
import time

MIN_TIMED_S = 0.05
MAX_CALLS = 200


def best_of(fns, repeat: int) -> list[tuple[float, float, object]]:
    """Time each of ``fns`` by the rule above, calling them in turn,
    round after round, so that host drift hits each alike. GC is off
    while timing. Returns ``(best_s, spent_s, last result)`` per fn."""
    best = [float("inf")] * len(fns)
    spent = [0.0] * len(fns)
    results = [None] * len(fns)
    calls = 0
    gc.collect()
    gc.disable()
    try:
        while calls < repeat or (min(spent) < MIN_TIMED_S
                                 and calls < MAX_CALLS):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                results[i] = fn()
                elapsed = time.perf_counter() - t0
                best[i] = min(best[i], elapsed)
                spent[i] += elapsed
            calls += 1
    finally:
        gc.enable()
    return list(zip(best, spent, results))


def timed_rounds(fns, rounds: int) -> list[tuple[list[float], object]]:
    """Call each of ``fns`` in turn, ``rounds`` times, GC off while
    timing. Returns ``(seconds per round, last result)`` per fn; round
    ``i`` of every fn ran back to back, so their ratio compares calls
    that met the same host state."""
    seconds = [[] for _ in fns]
    results = [None] * len(fns)
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                results[i] = fn()
                seconds[i].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return list(zip(seconds, results))
