import pytest

from repro.continuum import Link, Site, Tier, Topology, edge_cloud_pair
from repro.core import (
    ContinuumScheduler,
    DataGravityStrategy,
    FixedSiteStrategy,
    GreedyEFTStrategy,
    HEFTStrategy,
    TierStrategy,
)
from repro.datafabric import Dataset
from repro.errors import SchedulingError
from repro.workflow import TaskSpec, WorkflowDAG


def pair_topology(bandwidth=100.0, latency=0.0, cloud_speed=8.0):
    return edge_cloud_pair(edge_speed=1.0, cloud_speed=cloud_speed,
                           bandwidth_Bps=bandwidth, latency_s=latency)


def single_task_dag(work=8.0, input_bytes=100.0):
    dag = WorkflowDAG("single")
    dag.add_task(TaskSpec("t", work=work, inputs=("raw",)))
    return dag, Dataset("raw", input_bytes)


class TestSingleTask:
    def test_edge_placement_timing(self):
        dag, raw = single_task_dag(work=8.0, input_bytes=100.0)
        sched = ContinuumScheduler(pair_topology())
        result = sched.run(dag, TierStrategy("edge"),
                           external_inputs=[(raw, "edge")])
        # data local, work 8 at speed 1
        assert result.makespan == pytest.approx(8.0)
        assert result.bytes_moved == 0.0
        rec = result.records["t"]
        assert rec.site == "edge"
        assert rec.stage_time == 0.0
        assert rec.exec_time == pytest.approx(8.0)

    def test_cloud_placement_timing(self):
        dag, raw = single_task_dag(work=8.0, input_bytes=100.0)
        sched = ContinuumScheduler(pair_topology(bandwidth=100.0))
        result = sched.run(dag, TierStrategy("cloud"),
                           external_inputs=[(raw, "edge")])
        # stage 100 B at 100 B/s = 1 s, exec 8/8 = 1 s
        assert result.makespan == pytest.approx(2.0)
        assert result.bytes_moved == 100.0
        rec = result.records["t"]
        assert rec.stage_time == pytest.approx(1.0)
        assert rec.exec_time == pytest.approx(1.0)

    def test_greedy_eft_picks_winner_per_bandwidth(self):
        dag, raw = single_task_dag(work=8.0, input_bytes=100.0)
        fast = ContinuumScheduler(pair_topology(bandwidth=1000.0)).run(
            dag, GreedyEFTStrategy(), external_inputs=[(raw, "edge")]
        )
        assert fast.records["t"].site == "cloud"
        dag2, raw2 = single_task_dag(work=8.0, input_bytes=100.0)
        slow = ContinuumScheduler(pair_topology(bandwidth=1.0)).run(
            dag2, GreedyEFTStrategy(), external_inputs=[(raw2, "edge")]
        )
        assert slow.records["t"].site == "edge"

    def test_pinned_site_overrides_strategy(self):
        dag = WorkflowDAG()
        dag.add_task(TaskSpec("t", 8.0, inputs=("raw",), pinned_site="edge"))
        sched = ContinuumScheduler(pair_topology(bandwidth=1e9))
        result = sched.run(dag, TierStrategy("cloud"),
                           external_inputs=[(Dataset("raw", 100.0), "edge")])
        assert result.records["t"].site == "edge"

    def test_missing_external_input_rejected(self):
        dag, raw = single_task_dag()
        sched = ContinuumScheduler(pair_topology())
        with pytest.raises(SchedulingError, match="external inputs"):
            sched.run(dag, TierStrategy("edge"))

    def test_empty_dag_rejected(self):
        sched = ContinuumScheduler(pair_topology())
        with pytest.raises(Exception):
            sched.run(WorkflowDAG(), TierStrategy("edge"))


class TestDependencies:
    def diamond(self):
        dag = WorkflowDAG("diamond")
        dag.add_task(TaskSpec("a", 1.0, inputs=("raw",),
                              outputs=(Dataset("da", 50.0),)))
        dag.add_task(TaskSpec("b", 2.0, inputs=("da",),
                              outputs=(Dataset("db", 50.0),)))
        dag.add_task(TaskSpec("c", 2.0, inputs=("da",),
                              outputs=(Dataset("dc", 50.0),)))
        dag.add_task(TaskSpec("d", 1.0, inputs=("db", "dc")))
        return dag

    def test_dependency_ordering_respected(self):
        sched = ContinuumScheduler(pair_topology(bandwidth=1000.0))
        result = sched.run(self.diamond(), GreedyEFTStrategy(),
                           external_inputs=[(Dataset("raw", 10.0), "edge")])
        r = result.records
        assert r["a"].exec_finished <= r["b"].stage_started + 1e-9
        assert r["a"].exec_finished <= r["c"].stage_started + 1e-9
        assert max(r["b"].exec_finished, r["c"].exec_finished) <= \
            r["d"].stage_started + 1e-9
        assert result.task_count == 4

    def test_intermediate_data_stays_local_when_colocated(self):
        # all tasks fixed at edge: only 'raw' never moves, nothing crosses
        sched = ContinuumScheduler(pair_topology())
        result = sched.run(self.diamond(), FixedSiteStrategy("edge"),
                           external_inputs=[(Dataset("raw", 10.0), "edge")])
        assert result.bytes_moved == 0.0

    def test_cross_site_dependency_pays_transfer(self):
        dag = WorkflowDAG()
        dag.add_task(TaskSpec("a", 1.0, outputs=(Dataset("x", 200.0),),
                              pinned_site="edge"))
        dag.add_task(TaskSpec("b", 1.0, inputs=("x",), pinned_site="cloud"))
        sched = ContinuumScheduler(pair_topology(bandwidth=100.0))
        result = sched.run(dag, GreedyEFTStrategy())
        assert result.bytes_moved == 200.0
        rec = result.records["b"]
        assert rec.stage_time == pytest.approx(2.0)
        assert result.makespan == pytest.approx(1.0 + 2.0 + 1.0 / 8.0)

    def test_parallel_tasks_share_slots(self):
        # 4 independent tasks of work 4 on edge (speed 1, 4 slots by
        # default profile): all run in parallel => makespan 4
        dag = WorkflowDAG()
        for i in range(4):
            dag.add_task(TaskSpec(f"t{i}", 4.0))
        sched = ContinuumScheduler(pair_topology())
        result = sched.run(dag, TierStrategy("edge"))
        assert result.makespan == pytest.approx(4.0)

    def test_slot_contention_serializes(self):
        # 8 tasks, 4 slots => two waves
        dag = WorkflowDAG()
        for i in range(8):
            dag.add_task(TaskSpec(f"t{i}", 4.0))
        sched = ContinuumScheduler(pair_topology())
        result = sched.run(dag, TierStrategy("edge"))
        assert result.makespan == pytest.approx(8.0)
        queue_times = sorted(r.queue_time for r in result.records.values())
        assert queue_times[:4] == pytest.approx([0.0] * 4)
        assert queue_times[4:] == pytest.approx([4.0] * 4)


class TestAccounting:
    def test_energy_and_cost_sum_over_tasks(self):
        dag = WorkflowDAG()
        for i in range(3):
            dag.add_task(TaskSpec(f"t{i}", 8.0))
        topo = pair_topology()
        sched = ContinuumScheduler(topo)
        result = sched.run(dag, TierStrategy("cloud"))
        cloud = topo.site("cloud")
        per_task_exec = 1.0  # work 8 at speed 8
        assert result.energy_j == pytest.approx(
            3 * cloud.power.marginal_energy(per_task_exec)
        )
        assert result.compute_usd == pytest.approx(
            3 * cloud.pricing.compute_cost(per_task_exec)
        )
        assert result.site_busy_s["cloud"] == pytest.approx(3.0)
        assert result.site_busy_s["edge"] == 0.0

    def test_transfer_cost_charged_on_priced_links(self):
        dag, raw = single_task_dag(work=8.0, input_bytes=1e9)
        topo = edge_cloud_pair(bandwidth_Bps=1e9, egress_usd_per_gb=0.09)
        sched = ContinuumScheduler(topo)
        result = sched.run(dag, TierStrategy("cloud"),
                           external_inputs=[(raw, "edge")])
        assert result.transfer_usd == pytest.approx(0.09)
        assert result.total_usd > result.compute_usd

    def test_decisions_logged(self):
        dag, raw = single_task_dag()
        sched = ContinuumScheduler(pair_topology())
        result = sched.run(dag, TierStrategy("edge"),
                           external_inputs=[(raw, "edge")])
        assert len(result.decisions) == 1
        d = result.decisions[0]
        assert d.task == "t" and d.site == "edge"

    def test_summary_row_shape(self):
        dag, raw = single_task_dag()
        sched = ContinuumScheduler(pair_topology())
        result = sched.run(dag, TierStrategy("edge"),
                           external_inputs=[(raw, "edge")])
        row = result.summary_row()
        assert row["strategy"] == "edge-only"
        assert row["makespan_s"] == result.makespan
        assert row["slo_met"] == "-"


class TestDeterminismAndFailure:
    def test_same_seed_same_result(self):
        def run_once():
            dag = WorkflowDAG()
            for i in range(10):
                dag.add_task(TaskSpec(f"t{i}", 1.0 + i * 0.3))
            sched = ContinuumScheduler(pair_topology(), seed=7)
            from repro.core import RandomStrategy
            result = sched.run(dag, RandomStrategy())
            return [(n, r.site, r.exec_finished)
                    for n, r in sorted(result.records.items())]

        assert run_once() == run_once()

    def test_transfer_failure_surfaces(self):
        dag, raw = single_task_dag()
        sched = ContinuumScheduler(pair_topology(),
                                   transfer_failure_prob=1.0,
                                   transfer_max_attempts=2)
        with pytest.raises(SchedulingError, match="failed"):
            sched.run(dag, TierStrategy("cloud"),
                      external_inputs=[(raw, "edge")])

    def test_staging_failure_is_retried_without_a_policy(self):
        """No policy still means one retry path: a corrupted transfer is
        retried like any transient fault, up to ``task_retries``."""
        dag, raw = single_task_dag()
        sched = ContinuumScheduler(pair_topology(),
                                   transfer_failure_prob=1.0,
                                   transfer_max_attempts=2)
        with pytest.raises(SchedulingError) as excinfo:
            sched.run(dag, TierStrategy("cloud"),
                      external_inputs=[(raw, "edge")], task_retries=1)
        cause = excinfo.value.__cause__
        assert isinstance(cause, SchedulingError)
        assert "retries exhausted" in str(cause)
        assert "attempt 2 at cloud: staging@cloud" in str(cause)

    def test_until_limit_reports_unfinished(self):
        dag, raw = single_task_dag(work=100.0)
        sched = ContinuumScheduler(pair_topology())
        with pytest.raises(SchedulingError, match="unfinished"):
            sched.run(dag, TierStrategy("edge"),
                      external_inputs=[(raw, "edge")], until=1.0)


class TestStrategyComparison:
    def make_pipeline(self, n_stages=6, data_mb=50.0):
        """Edge-born data flows through a chain of heavy tasks."""
        dag = WorkflowDAG("pipeline")
        prev = "raw"
        for i in range(n_stages):
            out = Dataset(f"d{i}", data_mb * 1e6)
            dag.add_task(TaskSpec(f"s{i}", work=32.0, inputs=(prev,),
                                  outputs=(out,)))
            prev = out.name
        return dag, Dataset("raw", data_mb * 1e6)

    def test_heft_beats_fixed_edge_on_compute_heavy_chain(self):
        topo = pair_topology(bandwidth=100e6)  # 100 MB/s
        dag, raw = self.make_pipeline()
        edge = ContinuumScheduler(topo).run(
            dag, TierStrategy("edge"), external_inputs=[(raw, "edge")]
        )
        dag2, raw2 = self.make_pipeline()
        heft = ContinuumScheduler(topo).run(
            dag2, HEFTStrategy(), external_inputs=[(raw2, "edge")]
        )
        assert heft.makespan < edge.makespan

    def test_data_gravity_moves_fewer_bytes_than_cloud_only(self):
        topo = pair_topology(bandwidth=100e6)
        dag, raw = self.make_pipeline()
        cloud = ContinuumScheduler(topo).run(
            dag, TierStrategy("cloud"), external_inputs=[(raw, "edge")]
        )
        dag2, raw2 = self.make_pipeline()
        gravity = ContinuumScheduler(topo).run(
            dag2, DataGravityStrategy(), external_inputs=[(raw2, "edge")]
        )
        assert gravity.bytes_moved <= cloud.bytes_moved

    def test_makespan_never_below_critical_path_bound(self):
        topo = pair_topology(bandwidth=1e12, latency=0.0)
        dag, raw = self.make_pipeline()
        result = ContinuumScheduler(topo).run(
            dag, GreedyEFTStrategy(), external_inputs=[(raw, "edge")]
        )
        # fastest site is cloud at speed 8: lower bound on any schedule
        fastest = max(s.speed for s in topo.sites)
        bound, _ = dag.critical_path(time_of=lambda t: t.work / fastest)
        assert result.makespan >= bound - 1e-9
