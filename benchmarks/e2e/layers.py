"""Per-layer split of a profiled pass.

The layer map sends ``src/repro/<subpackage>/`` to layer
``<subpackage>``, modules at the top of ``src/repro`` to ``repro``, and
the benchmark's own files to ``harness``. Time spent in C builtins,
numpy and the standard library belongs to no layer of its own: it is
charged to the layers of its callers, in proportion to the time each
caller edge of the pstats graph accounts for. The per-layer self times
therefore add up to the profile's total.

Nothing here reaches into ``src/``: layers are measured from outside,
by profiling calls into them.
"""

from __future__ import annotations

import os
import pstats

# One entry per subpackage of src/repro; the smoke tests fail when a
# new subpackage appears without a layer here.
LAYERS = (
    "simcore", "netsim", "core", "datafabric", "controlplane",
    "resilience", "faults", "observe", "workflow", "workloads",
    "continuum", "faas", "bench", "report", "utils",
)
ALL_LAYERS = LAYERS + ("repro", "harness")

_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep

# (file suffix, function, caller or None) of the functions whose call
# counts and cumulative times the per-layer metrics read; with a caller,
# only the calls made by functions of that name count
PROBES = {
    "deliver": (os.path.join("controlplane", "cluster.py"), "_deliver", None),
    "compact": (os.path.join("controlplane", "log.py"), "compact", None),
    "stage": (os.path.join("datafabric", "transfer.py"), "stage", None),
    # a cost-row miss: estimate_batch computes speeds only when its
    # memoized row is stale
    "row_miss": (os.path.join("core", "cost.py"), "_speeds",
                 "estimate_batch"),
    "estimate_batch": (os.path.join("core", "cost.py"), "estimate_batch",
                       None),
    "solve": (os.path.join("netsim", "network.py"), "_solve_rates", None),
}


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; None for code outside both
    the program and the benchmark (builtins, stdlib, numpy)."""
    path = os.path.abspath(filename) if filename not in ("~", "") else ""
    if path.startswith(_HARNESS_DIR):
        return "harness"
    cut = path.rfind(_REPRO_MARK)
    if cut < 0:
        return None
    head = path[cut + len(_REPRO_MARK):].split(os.sep)[0]
    return head if head in LAYERS else "repro"


def split(stats: pstats.Stats) -> dict:
    """Self time and cross-layer calls per layer, plus probe counts.

    Returns ``{"self_s": {layer: s}, "calls_in": {layer: n},
    "total_s": s, "probes": {name: (calls, cumulative_s)}}``.
    """
    raw = stats.stats
    own = {func: layer_of(func[0]) for func in raw}
    memo: dict = {}

    def share(func, stack, by_time=True) -> tuple[dict[str, float],
                                                 frozenset]:
        """Fractions of ``func``'s cost owed to each layer, and the
        functions of ``stack`` the walk up the callers ran into.

        Caller edges weigh by their time, or with ``by_time`` false by
        their call counts, which repeat exactly from run to run. A
        caller already on ``stack`` closes a cycle of external
        functions: it adds nothing here, and the other callers' weights
        are renormalised. A result is memoized only when no cycle
        reached below ``func``, so it never depends on the order of the
        walk. Empty when every caller closes a cycle.
        """
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}, frozenset()
        if (func, by_time) in memo:
            return memo[func, by_time], frozenset()
        callers = {c: e for c, e in raw[func][4].items() if c in raw}
        if not callers:
            # a root of the profile (the profiler's own entry points):
            # started by the benchmark
            return {"harness": 1.0}, frozenset()
        weights = {c: e[2] for c, e in callers.items()} if by_time else {}
        if sum(weights.values()) <= 0:
            weights = {c: e[1] for c, e in callers.items()}
        inner = stack | {func}
        result, total, hit = {}, 0.0, set()
        for caller, w in weights.items():
            if caller in inner:
                hit.add(caller)
                continue
            fractions, reached = share(caller, inner, by_time)
            hit |= reached
            if fractions and w > 0:
                total += w
                for layer, frac in fractions.items():
                    result[layer] = result.get(layer, 0.0) + frac * w
        result = {layer: v / total for layer, v in result.items()}
        hit.discard(func)
        if not hit:
            memo[func, by_time] = result
        return result, frozenset(hit)

    self_s = dict.fromkeys(ALL_LAYERS, 0.0)
    calls_in = dict.fromkeys(ALL_LAYERS, 0)
    for func, (_cc, _nc, tt, _ct, callers) in raw.items():
        fractions = share(func, frozenset())[0] or {"harness": 1.0}
        for layer, frac in fractions.items():
            self_s[layer] += tt * frac
        layer = own[func]
        if layer is None:
            continue
        for caller, edge in callers.items():
            if caller not in raw:
                continue
            origin = own[caller]
            if origin is None:
                weights = (share(caller, frozenset(), by_time=False)[0]
                           or {"harness": 1.0})
                origin = max(sorted(weights), key=weights.get)
            if origin != layer:
                calls_in[layer] += edge[1]

    probes = {}
    for name, (suffix, funcname, caller) in PROBES.items():
        calls = cum = 0
        for func, (_cc, nc, _tt, ct, callers) in raw.items():
            if func[2] != funcname or not func[0].endswith(suffix) \
                    or own[func] is None:
                continue
            if caller is None:
                calls += nc
                cum += ct
            else:
                for edge_caller, edge in callers.items():
                    if edge_caller[2] == caller:
                        calls += edge[1]
                        cum += edge[3]
        probes[name] = (calls, cum)
    return {"self_s": self_s, "calls_in": calls_in,
            "total_s": stats.total_tt, "probes": probes}
