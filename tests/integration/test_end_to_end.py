"""Cross-module integration: whole-stack scenarios.

These tests exercise multiple substrates together the way the examples
do — scheduler + transfers + network + strategies + workloads — and pin
down behaviours no single-module test covers.
"""

import pytest

from repro.continuum import (
    Tier,
    hierarchical_continuum,
    science_grid,
    smart_city,
)
from repro.core import (
    ContinuumScheduler,
    GreedyEFTStrategy,
    HEFTStrategy,
    LatencyAwareStrategy,
    TierStrategy,
    slo_report,
)
from repro.core.strategies import strategy_catalog
from repro.datafabric import Dataset
from repro.errors import SchedulingError
from repro.workflow import TaskSpec, WorkflowDAG
from repro.workloads import (
    beamline_pipeline,
    climate_ensemble,
    layered_random_dag,
    map_reduce_dag,
    montage_like_dag,
)


def externals_at(externals, site):
    return [(d, site) for d in externals]


class TestWorkloadsOnPresets:
    @pytest.mark.parametrize("builder,kwargs", [
        (map_reduce_dag, {"n_map": 3, "n_reduce": 2}),
        (montage_like_dag, {"n_inputs": 4}),
        (layered_random_dag, {"n_tasks": 20, "seed": 5}),
    ])
    def test_every_dag_family_runs_on_science_grid(self, builder, kwargs):
        if builder is map_reduce_dag:
            dag, externals = builder(kwargs.pop("n_map"),
                                     kwargs.pop("n_reduce"), **kwargs)
        elif builder is montage_like_dag:
            dag, externals = builder(kwargs.pop("n_inputs"), **kwargs)
        else:
            dag, externals = builder(kwargs.pop("n_tasks"), **kwargs)
        topo = science_grid()
        result = ContinuumScheduler(topo).run(
            dag, HEFTStrategy(),
            external_inputs=externals_at(externals, "beamline-edge"),
        )
        assert result.task_count == len(dag)
        assert result.makespan > 0

    @pytest.mark.parametrize("strategy", strategy_catalog(),
                             ids=lambda s: s.name)
    def test_every_strategy_completes_beamline(self, strategy):
        topo = science_grid()
        dag, frames = beamline_pipeline(4)
        result = ContinuumScheduler(topo).run(
            dag, strategy,
            external_inputs=externals_at(frames, "instrument"),
        )
        assert result.task_count == len(dag)

    def test_smart_city_inference_with_slo(self):
        topo = smart_city()
        dag = WorkflowDAG("patrol")
        externals = []
        for i in range(6):
            frame = Dataset(f"shot{i}", 3e5)
            externals.append((frame, f"camera{i}"))
            dag.add_task(TaskSpec(f"detect{i}", work=1.0,
                                  kind="dnn-inference",
                                  inputs=(frame.name,), deadline_s=2.0))
        result = ContinuumScheduler(topo).run(
            dag, LatencyAwareStrategy(), external_inputs=externals
        )
        report = slo_report(result.records.values())
        assert report.total == 6
        assert report.satisfaction == 1.0

    def test_climate_on_hierarchy_prefers_central_sites(self):
        topo = hierarchical_continuum(seed=2)
        dag, cfgs = climate_ensemble(4)
        result = ContinuumScheduler(topo).run(
            dag, GreedyEFTStrategy(),
            external_inputs=externals_at(cfgs, "edge0"),
        )
        sim_sites = {result.records[f"climate-sim{i}"].site for i in range(4)}
        tiers = {topo.site(s).tier for s in sim_sites}
        assert tiers <= {Tier.CLOUD, Tier.HPC}


class TestFaultToleranceAcrossStack:
    def test_flaky_transfers_retry_to_completion(self):
        topo = science_grid()
        dag, frames = beamline_pipeline(3)
        sched = ContinuumScheduler(topo, transfer_failure_prob=0.3,
                                   transfer_max_attempts=10, seed=5)
        result = sched.run(dag, GreedyEFTStrategy(),
                           external_inputs=externals_at(frames, "instrument"))
        assert result.task_count == len(dag)
        # retried bytes show up in the wire accounting
        staged = sum(r.bytes_staged for r in result.records.values())
        assert result.bytes_moved >= staged * 0.99

    def test_flaky_run_slower_than_clean_run(self):
        topo = science_grid()

        def run(prob):
            dag, frames = beamline_pipeline(3)
            sched = ContinuumScheduler(topo, transfer_failure_prob=prob,
                                       transfer_max_attempts=20, seed=11)
            return sched.run(
                dag, TierStrategy("hpc"),
                external_inputs=externals_at(frames, "instrument"),
            )

        clean = run(0.0)
        flaky = run(0.6)
        assert flaky.makespan > clean.makespan
        assert flaky.bytes_moved > clean.bytes_moved


class TestCrossRunConsistency:
    def test_strategy_rankings_deterministic(self):
        topo = science_grid()

        def table(seed):
            rows = []
            for strategy in strategy_catalog():
                dag, frames = beamline_pipeline(4)
                result = ContinuumScheduler(topo, seed=seed).run(
                    dag, strategy,
                    external_inputs=externals_at(frames, "instrument"),
                )
                rows.append((strategy.name, result.makespan,
                             result.bytes_moved))
            return rows

        assert table(3) == table(3)

    def test_candidate_restriction_is_respected(self):
        topo = science_grid()
        dag, frames = beamline_pipeline(2)
        sched = ContinuumScheduler(
            topo, candidate_sites=["beamline-edge", "campus-fog"]
        )
        result = sched.run(dag, GreedyEFTStrategy(),
                           external_inputs=externals_at(frames, "instrument"))
        used = {r.site for r in result.records.values()}
        assert used <= {"beamline-edge", "campus-fog"}

    def test_pinned_site_outside_candidates_rejected(self):
        topo = science_grid()
        dag = WorkflowDAG("pinned")
        dag.add_task(TaskSpec("t", 1.0, pinned_site="cloud"))
        sched = ContinuumScheduler(topo, candidate_sites=["beamline-edge"])
        with pytest.raises(SchedulingError):
            sched.run(dag, GreedyEFTStrategy())


class TestDataFlowSemantics:
    def test_intermediates_become_replicas_where_produced(self):
        """After a run, every output dataset has a replica at its
        producer's site — downstream placement can rely on the catalog."""
        topo = science_grid()
        dag, frames = beamline_pipeline(2)
        sched = ContinuumScheduler(topo)
        result = sched.run(dag, GreedyEFTStrategy(),
                           external_inputs=externals_at(frames, "instrument"))
        # reconstruct's output datasets were consumed by qa at qa's site:
        # the scheduler must have staged them there
        for i in range(2):
            recon_site = result.records[f"beamline-reconstruct{i}"].site
            qa_site = result.records[f"beamline-qa{i}"].site
            qa = result.records[f"beamline-qa{i}"]
            if recon_site == qa_site:
                assert qa.bytes_staged == 0.0
            else:
                assert qa.bytes_staged > 0.0

    def test_zero_work_barrier_tasks(self):
        dag = WorkflowDAG("barrier")
        dag.add_task(TaskSpec("a", 1.0, outputs=(Dataset("x", 10.0),)))
        dag.add_task(TaskSpec("barrier", 0.0, inputs=("x",),
                              outputs=(Dataset("y", 0.0),)))
        dag.add_task(TaskSpec("b", 1.0, inputs=("y",)))
        topo = science_grid()
        result = ContinuumScheduler(topo).run(dag, GreedyEFTStrategy())
        assert result.records["barrier"].exec_time == 0.0
        assert result.task_count == 3
