import pytest

from repro.continuum import edge_cloud_pair
from repro.core import ContinuumScheduler, GreedyEFTStrategy, TierStrategy
from repro.core.scheduler import StreamJob
from repro.datafabric import Dataset
from repro.errors import SchedulingError
from repro.workflow import TaskSpec, WorkflowDAG


def job(arrival, tag, work=4.0, n_tasks=1):
    dag = WorkflowDAG(f"job-{tag}")
    externals = []
    for i in range(n_tasks):
        raw = Dataset(f"{tag}-raw{i}", 10.0)
        externals.append((raw, "edge"))
        dag.add_task(TaskSpec(f"{tag}-t{i}", work, inputs=(raw.name,)))
    return StreamJob(arrival, dag, tuple(externals))


class TestStreamBasics:
    def test_single_job_stream_matches_run(self):
        topo = edge_cloud_pair(latency_s=0.0)
        stream = ContinuumScheduler(topo).run_stream(
            [job(0.0, "a")], TierStrategy("edge")
        )
        assert len(stream.jobs) == 1
        assert stream.jobs[0].response_time == pytest.approx(4.0)
        assert stream.last_finish == pytest.approx(4.0)

    def test_arrival_delays_start(self):
        topo = edge_cloud_pair(latency_s=0.0)
        stream = ContinuumScheduler(topo).run_stream(
            [job(10.0, "late")], TierStrategy("edge")
        )
        record = stream.records["late-t0"]
        assert record.ready_at >= 10.0
        assert stream.jobs[0].finished_s == pytest.approx(14.0)
        assert stream.jobs[0].response_time == pytest.approx(4.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(SchedulingError):
            ContinuumScheduler(edge_cloud_pair()).run_stream(
                [], TierStrategy("edge")
            )

    def test_duplicate_task_names_rejected(self):
        topo = edge_cloud_pair()
        with pytest.raises(SchedulingError, match="duplicate task"):
            ContinuumScheduler(topo).run_stream(
                [job(0.0, "same"), job(1.0, "same")], TierStrategy("edge")
            )

    def test_negative_arrival_rejected(self):
        """Negative and non-finite arrivals fail at construction, naming
        the field, not later inside the kernel."""
        for arrival in (-1.0, float("nan"), float("inf")):
            with pytest.raises(SchedulingError, match="arrival_s"):
                job(arrival, "x")


class TestQueueingBehavior:
    def test_overlapping_jobs_contend_for_slots(self):
        """Edge has 4 slots; 8 single-task jobs arriving together must
        run in two waves."""
        topo = edge_cloud_pair(latency_s=0.0)
        jobs = [job(0.0, f"j{i}", work=4.0) for i in range(8)]
        stream = ContinuumScheduler(topo).run_stream(
            jobs, TierStrategy("edge")
        )
        responses = sorted(j.response_time for j in stream.jobs)
        assert responses[:4] == pytest.approx([4.0] * 4)
        assert responses[4:] == pytest.approx([8.0] * 4)
        assert stream.mean_response_time == pytest.approx(6.0)

    def test_spaced_arrivals_no_contention(self):
        topo = edge_cloud_pair(latency_s=0.0)
        jobs = [job(10.0 * i, f"j{i}", work=4.0) for i in range(4)]
        stream = ContinuumScheduler(topo).run_stream(
            jobs, TierStrategy("edge")
        )
        assert all(j.response_time == pytest.approx(4.0) for j in stream.jobs)

    def test_response_time_grows_with_offered_load(self):
        """The hockey stick: same jobs, compressed arrivals."""
        topo = edge_cloud_pair(latency_s=0.0)

        def mean_response(gap):
            jobs = [job(gap * i, f"g{i}", work=4.0) for i in range(12)]
            stream = ContinuumScheduler(topo).run_stream(
                jobs, TierStrategy("edge")
            )
            return stream.mean_response_time

        relaxed = mean_response(gap=2.0)    # under capacity
        saturated = mean_response(gap=0.5)  # over capacity
        assert saturated > relaxed

    def test_jobs_share_strategy_state(self):
        """HEFT ranks accumulate across arrivals without breaking."""
        from repro.core import HEFTStrategy

        topo = edge_cloud_pair(latency_s=0.0)
        jobs = [job(i * 1.0, f"h{i}", n_tasks=2) for i in range(3)]
        stream = ContinuumScheduler(topo).run_stream(jobs, HEFTStrategy())
        assert len(stream.records) == 6
        assert all(j.finished_s > 0 for j in stream.jobs)


class TestStreamAccounting:
    def test_bytes_and_costs_aggregate(self):
        topo = edge_cloud_pair(latency_s=0.0, bandwidth_Bps=100.0)
        jobs = [job(0.0, "c0"), job(1.0, "c1")]
        stream = ContinuumScheduler(topo).run_stream(
            jobs, TierStrategy("cloud")
        )
        assert stream.bytes_moved == pytest.approx(20.0)  # two 10 B inputs

    def test_deterministic(self):
        topo = edge_cloud_pair()

        def run():
            jobs = [job(i * 0.5, f"d{i}") for i in range(5)]
            stream = ContinuumScheduler(topo, seed=9).run_stream(
                jobs, GreedyEFTStrategy()
            )
            return [(j.name, j.finished_s) for j in stream.jobs]

        assert run() == run()

    def test_stream_with_failures(self):
        from repro.faults import OutageSchedule, SiteOutage

        topo = edge_cloud_pair(latency_s=0.0)
        failures = OutageSchedule().add(SiteOutage("edge", 1.0, 2.0))
        jobs = [job(0.0, "f0", work=4.0)]
        stream = ContinuumScheduler(topo).run_stream(
            jobs, TierStrategy("edge"), failures=failures, task_retries=5
        )
        assert stream.interruptions == 1
        # interrupted at t=1 (1 s wasted), re-placed after recovery at 3
        assert stream.jobs[0].finished_s == pytest.approx(7.0)
