"""End-to-end wiring: a scheduled run with the control plane enabled
executes deterministically, pays read latency, books staleness stats,
and survives partition schedules — while control=None stays the exact
single-copy code path."""

import pytest

from repro.continuum import science_grid
from repro.controlplane import ControlPlaneConfig
from repro.core import ContinuumScheduler
from repro.core.strategies import GreedyEFTStrategy, RoundRobinStrategy
from repro.datafabric import Dataset
from repro.errors import SchedulingError
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.workflow import TaskSpec, WorkflowDAG


def small_dag(n_waves=4, width=3):
    dag = WorkflowDAG("ctl-int")
    ref = Dataset("ref", 5e7)
    prev = None
    for w in range(n_waves):
        outs = []
        for t in range(width):
            out = Dataset(f"w{w}t{t}", 1e6)
            inputs = ("ref",) if prev is None else ("ref", prev)
            dag.add_task(TaskSpec(f"w{w}-t{t}", work=2.0,
                                  inputs=inputs, outputs=(out,)))
            outs.append(out)
        gate = Dataset(f"gate{w}", 1e5)
        dag.add_task(TaskSpec(f"sync{w}", work=1.0,
                              inputs=tuple(o.name for o in outs),
                              outputs=(gate,)))
        prev = gate.name
    return dag, [(ref, "beamline-edge")]


def run_once(mode=None, lag=2.0, partitions=None, seed=7,
             strategy=RoundRobinStrategy):
    topo = science_grid()
    dag, placed = small_dag()
    control = None
    if mode is not None:
        control = ControlPlaneConfig.for_lag(lag, n_sites=5, read_mode=mode)
    return ContinuumScheduler(topo, seed=seed).run(
        dag, strategy(), external_inputs=placed,
        control=control, partitions=partitions)


class TestWiring:
    def test_disabled_plane_reports_no_control_stats(self):
        result = run_once(mode=None)
        assert result.control is None

    def test_enabled_plane_populates_stats(self):
        result = run_once(mode="quorum")
        stats = result.control
        assert stats is not None
        assert stats.reads > 0
        assert stats.quorum_reads == stats.reads
        assert stats.misplacements == 0

    @pytest.mark.parametrize("mode", ["quorum", "stale"])
    def test_cost_model_plans_through_the_view(self, mode):
        """Estimating strategies read the view's catalog versions; no
        benchmark or table run takes this path."""
        result = run_once(mode=mode, strategy=GreedyEFTStrategy)
        assert result.task_count == len(small_dag()[0])
        assert result.control.reads > 0

    def test_quorum_reads_cost_makespan(self):
        baseline = run_once(mode=None).makespan
        quorum = run_once(mode="quorum", lag=8.0).makespan
        assert quorum > baseline

    def test_partitions_without_control_rejected(self):
        schedule = PartitionSchedule().add(
            PartitionWindow(1.0, 10.0, "leader"))
        with pytest.raises(SchedulingError):
            run_once(mode=None, partitions=schedule)

    def test_partitioned_run_completes_and_heals(self):
        schedule = PartitionSchedule().add(
            PartitionWindow(5.0, 60.0, "leader"))
        result = run_once(mode="quorum", lag=2.0, partitions=schedule)
        stats = result.control
        assert stats.reads > 0
        # reads during the split either waited for the majority's new
        # leader or degraded — both leave an unavailability trace
        assert stats.unavailable_events >= 1


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["stale", "quorum"])
    def test_same_seed_same_run(self, mode):
        schedule = PartitionSchedule().add(
            PartitionWindow(5.0, 40.0, "minority", (0, 1)))
        a = run_once(mode=mode, partitions=schedule)
        b = run_once(mode=mode, partitions=schedule)
        assert a.makespan == b.makespan
        assert a.control.reads == b.control.reads
        assert a.control.read_latencies == b.control.read_latencies
        assert a.control.misplacements == b.control.misplacements
        assert a.control.wasted_bytes == b.control.wasted_bytes
