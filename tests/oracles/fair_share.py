"""Frozen scalar max-min solver: pure-Python progressive filling with
per-flow loops, the shape the vectorized solver in
:mod:`repro.netsim.fairness` replaced, and the reference of
``tests/netsim/test_fairness_differential.py`` and of
``benchmarks/bench_fairness.py``. It mirrors that solver's arithmetic
step for step (one ``count * level`` product and one subtraction per
link per level), so the two agree to 1e-9.

Do not "improve" this module: its value is staying what shipped.
"""

from __future__ import annotations

import math


def scalar_max_min(caps, flow_links):
    n_links = len(caps)
    n_flows = len(flow_links)
    rates = [0.0] * n_flows
    active = [True] * n_flows
    n_active = n_flows
    link_flows = [[] for _ in range(n_links)]
    for f, links in enumerate(flow_links):
        for l in links:
            link_flows[l].append(f)
        if not links:
            rates[f] = math.inf
            active[f] = False
            n_active -= 1
    remaining = [float(c) for c in caps]
    while n_active > 0:
        best_l, best_share = -1, math.inf
        for l in range(n_links):
            cnt = 0
            for f in link_flows[l]:
                if active[f]:
                    cnt += 1
            if cnt:
                share = remaining[l] / cnt
                if share < best_share:
                    best_share, best_l = share, l
        newly = [f for f in link_flows[best_l] if active[f]]
        for f in newly:
            rates[f] = best_share
            active[f] = False
        n_active -= len(newly)
        newly_set = set(newly)
        for l in range(n_links):
            cnt = 0
            for f in link_flows[l]:
                if f in newly_set:
                    cnt += 1
            if cnt:
                remaining[l] = max(remaining[l] - cnt * best_share, 0.0)
    return rates
