"""Coarse performance-regression guards.

The E3 scalability work (see EXPERIMENTS.md) fixed two accidental
quadratics: an O(n²) consumer scan in DAG construction and per-event
full reallocation in the flow network. These tests pin generous wall
bounds so a reintroduced quadratic fails CI loudly instead of
resurfacing as a mysteriously slow benchmark suite. Bounds are ~10x the
observed times on a modest machine — they catch complexity blowups, not
jitter.
"""

import time

import numpy as np
import pytest

from repro.bench.e02_strategies import place_externals
from repro.continuum import geo_random_continuum
from repro.core import ContinuumScheduler, HEFTStrategy
from repro.netsim import FlowNetwork
from repro.simcore import Simulator
from repro.workflow import WorkflowDAG
from repro.workloads import layered_random_dag


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class TestConstructionScaling:
    def test_dag_construction_is_near_linear(self):
        def build(n):
            # best-of-3: single runs at millisecond scale are too noisy
            # to ratio-test against
            walls = []
            for _ in range(3):
                _, wall = timed(
                    lambda: layered_random_dag(n, n_levels=6, seed=1)
                )
                walls.append(wall)
            return min(walls)

        small = max(build(200), 1e-3)
        large = build(800)
        # 4x tasks: linear is 4x, the old quadratic was ~16x; allow 10x
        assert large / small < 10.0, (
            f"DAG construction degraded: 200 tasks {small:.4f}s, "
            f"800 tasks {large:.4f}s"
        )

    def test_500_task_schedule_under_wall_bound(self):
        topo = geo_random_continuum(20, seed=0)
        dag, externals = layered_random_dag(500, n_levels=6, seed=0)
        sched = ContinuumScheduler(topo, seed=0)
        _, wall = timed(lambda: sched.run(
            dag, HEFTStrategy(),
            external_inputs=place_externals(topo, externals),
        ))
        # observed ~0.3 s; 10x headroom for slow CI machines
        assert wall < 3.0, f"500-task schedule took {wall:.2f}s"

    def test_500_flow_churn_under_wall_bound(self):
        """500 transfers arriving in same-instant bursts of 8 across a
        30-site continuum. Same-timestamp coalescing collapses each
        burst to one deferred fairness solve against the persistent
        incidence matrix; observed ~0.45 s here. The bound is tighter
        than the usual 10x because the failure it guards — per-event
        incidence rebuild and one solve per arrival — measured ~2.4 s on
        the same machine, so a 10x bound would let it back in."""
        topo = geo_random_continuum(30, seed=7)
        names = topo.site_names
        rng = np.random.default_rng(42)
        pairs = []
        while len(pairs) < 500:
            a, b = rng.choice(len(names), size=2, replace=False)
            pairs.append((names[a], names[b]))
        for a, b in pairs:  # warm routes: time the solver, not Dijkstra
            topo.path_info(a, b)
        sim = Simulator()
        net = FlowNetwork(sim, topo)

        def run():
            for i, (a, b) in enumerate(pairs):
                sim.schedule(0.001 * (i // 8),
                             lambda a=a, b=b: net.transfer(a, b, 5e7))
            sim.run()

        _, wall = timed(run)
        assert net.active_flow_count == 0
        assert net.flows_completed == 500
        assert wall < 1.5, f"500-flow churn took {wall:.2f}s"

    def test_wide_fan_in_dag_builds_quickly(self):
        """1000 consumers of one dataset: the consumer index must make
        this linear (the old scan was O(n^2) in exactly this shape)."""
        from repro.datafabric import Dataset
        from repro.workflow import TaskSpec

        def build():
            dag = WorkflowDAG("fanin")
            dag.add_task(TaskSpec("src", 1.0, outputs=(Dataset("hub", 1.0),)))
            for i in range(1000):
                dag.add_task(TaskSpec(f"c{i}", 1.0, inputs=("hub",)))
            return dag

        dag, wall = timed(build)
        assert len(dag) == 1001
        assert wall < 1.0, f"fan-in construction took {wall:.2f}s"
