"""Wave dispatch vs the frozen scalar oracle: bit-identical, always.

The wave engine (memoized cost rows + incrementally-maintained
availability) is a pure re-plumbing of the scalar placement loop — it
must emit the *identical* ``PlacementDecision`` stream, not merely an
equally-good one. These differentials run every strategy in the
catalog through both engines on random workloads, with churn, breaker
vetoes, hedging, and control-plane partitions layered on, and demand
equality of the full decision stream, the per-task records, and the
scalar result metrics.

The scalar engine runs over a cost model that never reuses a row
(``tests.oracles.scalar_engine``), so the two sides share no cached
arithmetic: any drift in the memo's invalidation or the in-place
availability updates shows up here as a decision mismatch.
"""

from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.continuum import geo_random_continuum, science_grid
from repro.controlplane import ControlPlaneConfig
from repro.core import ContinuumScheduler
from repro.core.strategies import (
    AdaptiveUCBStrategy,
    CostAwareStrategy,
    DataGravityStrategy,
    EnergyAwareStrategy,
    GreedyEFTStrategy,
    HEFTStrategy,
    LatencyAwareStrategy,
    MaxMinStrategy,
    MinMinStrategy,
    MultiObjectiveStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    TierStrategy,
)
from repro.errors import SchedulingError
from repro.faults import OutageSchedule, SiteOutage, TaskChaos
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.resilience import ResiliencePolicy
from repro.workloads import layered_random_dag
from tests.oracles import scalar_engine

# every strategy shape in the repo: fixed, random (RNG-stream
# sensitive), round-robin (call-order sensitive), data-aware, batch
# list schedulers (prioritize-order sensitive), EFT/HEFT, the aware
# trio, the weighted combiner, and the learning bandit (feedback-order
# sensitive)
STRATEGIES = {
    "tier-cloud": lambda: TierStrategy("cloud"),
    "random": RandomStrategy,
    "round-robin": RoundRobinStrategy,
    "gravity": DataGravityStrategy,
    "min-min": MinMinStrategy,
    "max-min": MaxMinStrategy,
    "greedy-eft": GreedyEFTStrategy,
    "heft": HEFTStrategy,
    "latency": LatencyAwareStrategy,
    "energy": EnergyAwareStrategy,
    "cost": CostAwareStrategy,
    "multi": lambda: MultiObjectiveStrategy(
        {"time": 0.6, "usd": 0.2, "energy": 0.2}),
    "adaptive": AdaptiveUCBStrategy,
}

FAULT_FLAVORS = ("none", "outage", "resilient-churn", "hedge")

ENGINES = {"scalar": scalar_engine, "wave": nullcontext}

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_one(dispatch, n_tasks, n_sites, seed, strategy_name, flavor):
    topo = geo_random_continuum(n_sites, seed=seed)
    dag, externals = layered_random_dag(n_tasks, n_levels=3, seed=seed)
    names = topo.site_names
    placed = [(d, names[i % len(names)]) for i, d in enumerate(externals)]

    kwargs = {}
    if flavor == "outage":
        kwargs["failures"] = (
            OutageSchedule()
            .add(SiteOutage(names[0], 0.5, 4.0))
            .add(SiteOutage(names[seed % len(names)], 2.0, 3.0))
        )
        kwargs["task_retries"] = 5
    elif flavor == "resilient-churn":
        # outages + the full policy: backoff retries, circuit breakers
        # (vetoes), budgets — the veto set seen by _dispatch now varies
        kwargs["failures"] = OutageSchedule().add(
            SiteOutage(names[0], 0.2, 6.0))
        kwargs["chaos"] = TaskChaos(
            seed=7,
            degraded_fail_prob=0.7,
            degraded={names[-1]: ((0.0, 50.0),)},
        )
        kwargs["resilience"] = ResiliencePolicy.full(seed=3)
    elif flavor == "hedge":
        # stragglers on one site so the hedging path (scalar in both
        # modes, interleaved with wave dispatch) actually fires
        kwargs["chaos"] = TaskChaos(
            seed=11,
            degraded_straggler_prob=1.0,
            straggler_factor=6.0,
            degraded={names[0]: ((0.0, 100.0),)},
        )
        kwargs["resilience"] = ResiliencePolicy.full(seed=5)

    with ENGINES[dispatch]():
        sched = ContinuumScheduler(topo, seed=seed)
        return sched.run(dag, STRATEGIES[strategy_name](),
                         external_inputs=placed, **kwargs)


def run_both(params):
    """Run scalar then wave; both must succeed or both must fail."""
    try:
        scalar = _run_one("scalar", *params)
    except SchedulingError as exc:
        with pytest.raises(SchedulingError) as caught:
            _run_one("wave", *params)
        assert str(caught.value) == str(exc)
        return None, None
    wave = _run_one("wave", *params)
    return scalar, wave


def assert_identical(scalar, wave):
    if scalar is None:
        return
    assert scalar.decisions == wave.decisions
    assert scalar.makespan == wave.makespan
    assert scalar.bytes_moved == wave.bytes_moved
    assert scalar.energy_j == wave.energy_j
    assert scalar.total_usd == wave.total_usd
    assert {n: (r.site, r.exec_finished, r.attempts)
            for n, r in scalar.records.items()} == \
        {n: (r.site, r.exec_finished, r.attempts)
         for n, r in wave.records.items()}


@st.composite
def scenario(draw):
    return (
        draw(st.integers(3, 20)),                       # tasks
        draw(st.integers(2, 10)),                       # sites
        draw(st.integers(0, 10_000)),                   # seed
        draw(st.sampled_from(sorted(STRATEGIES))),      # strategy
        draw(st.sampled_from(FAULT_FLAVORS)),           # fault flavor
    )


class TestWaveScalarDifferential:
    @SETTINGS
    @given(scenario())
    def test_decision_streams_bit_identical(self, params):
        scalar, wave = run_both(params)
        assert_identical(scalar, wave)

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    def test_every_strategy_under_churn(self, strategy_name):
        """Deterministic sweep: each strategy once, with outages, so a
        per-strategy regression names itself even if hypothesis
        happens not to draw it."""
        params = (16, 8, 42, strategy_name, "resilient-churn")
        scalar, wave = run_both(params)
        assert_identical(scalar, wave)

    def test_pinned_tasks_do_not_desync_rng(self):
        """Pinned tasks skip select_site in both engines — the wave
        generator must not consume RandomStrategy's RNG stream for
        them, or every later draw shifts."""
        from repro.datafabric import Dataset
        from repro.workflow import TaskSpec, WorkflowDAG

        topo = geo_random_continuum(6, seed=9)
        names = topo.site_names
        dag = WorkflowDAG("pinned-mix")
        for i in range(12):
            pinned = names[i % 3] if i % 3 == 0 else None
            dag.add_task(TaskSpec(f"t{i}", work=2.0 + i % 4,
                                  outputs=(Dataset(f"o{i}", 1e5),),
                                  pinned_site=pinned))
        runs = []
        for mode in ("scalar", "wave"):
            with ENGINES[mode]():
                runs.append(ContinuumScheduler(topo, seed=5).run(
                    dag, RandomStrategy()))
        assert runs[0].decisions == runs[1].decisions

    def test_partitioned_control_plane_identical(self):
        """Stale reads through a partitioned replicated catalog: the
        memo keys on the *view's* version, so staleness must be
        identically visible to both engines."""
        from repro.datafabric import Dataset
        from repro.workflow import TaskSpec, WorkflowDAG

        topo = science_grid()
        dag = WorkflowDAG("part-diff")
        ref = Dataset("ref", 5e7)
        prev = None
        for w in range(4):
            out = Dataset(f"o{w}", 1e6)
            dag.add_task(TaskSpec(
                f"t{w}", work=2.0,
                inputs=("ref",) if prev is None else ("ref", prev),
                outputs=(out,)))
            prev = out.name
        schedule = PartitionSchedule().add(
            PartitionWindow(1.0, 30.0, "minority", (0, 1)))
        results = []
        for mode in ("scalar", "wave"):
            control = ControlPlaneConfig.for_lag(
                2.0, n_sites=5, read_mode="stale")
            with ENGINES[mode]():
                results.append(ContinuumScheduler(topo, seed=7).run(
                    dag, RoundRobinStrategy(),
                    external_inputs=[(ref, "beamline-edge")],
                    control=control, partitions=schedule))
        scalar, wave = results
        assert scalar.decisions == wave.decisions
        assert scalar.makespan == wave.makespan
        assert scalar.control.reads == wave.control.reads
        assert scalar.control.misplacements == wave.control.misplacements

