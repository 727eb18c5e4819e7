"""Tier-1 metrics smoke: collect metrics from a scheduled run end to
end and prove the zero-interference + determinism contracts.

Also a kernel regression: traced+metered runs must stay bit-identical
under both the production EventQueue and the frozen HeapEventQueue
oracle.
"""

import json

from repro.continuum import science_grid
from repro.core import ContinuumScheduler, HEFTStrategy
from repro.faults import TaskChaos
from repro.observe import (
    MetricsRegistry,
    Tracer,
    snapshot_to_json,
    to_chrome_trace,
    use_registry,
    validate_chrome_trace,
    validate_snapshot,
)
from repro.resilience import ResiliencePolicy
from repro.simcore.event import EventQueue
from repro.workloads import beamline_pipeline
from tests.oracles import HeapEventQueue


def run_beamline(tracer=None, metrics=None, **run_kwargs):
    topo = science_grid()
    dag, externals = beamline_pipeline(4)
    peripheral = [s.name for s in topo.sites if s.tier.is_peripheral]
    placed = [(d, peripheral[i % len(peripheral)])
              for i, d in enumerate(externals)]
    result = ContinuumScheduler(topo, seed=0).run(
        dag, HEFTStrategy(), external_inputs=placed,
        tracer=tracer, metrics=metrics, **run_kwargs,
    )
    return result


def fingerprint(result):
    return (
        result.makespan,
        result.bytes_moved,
        result.energy_j,
        result.total_usd,
        {n: (r.site, r.stage_started, r.stage_finished,
             r.exec_started, r.exec_finished, r.attempts)
         for n, r in result.records.items()},
    )


class TestMeteredWorkload:
    def test_expected_metric_families(self):
        reg = MetricsRegistry()
        result = run_beamline(metrics=reg)
        assert result.task_count > 0
        names = {name for name, _ in reg.families()}
        assert {
            "sim_events_dispatched_total",
            "kernel_events_pushed_total",
            "kernel_events_per_sim_second",
            "netsim_flows_completed_total",
            "netsim_rate_solves_total",
            "scheduler_placement_decisions_total",
            "scheduler_task_exec_seconds",
            "resilience_retries_total",
        } <= names
        decisions = reg.get("scheduler_placement_decisions_total")
        total = sum(child.value for _, child in decisions.series())
        assert total == result.task_count
        exec_h = reg.get("scheduler_task_exec_seconds").labels()
        assert exec_h.count == result.task_count

    def test_snapshot_validates_and_is_deterministic(self):
        texts = []
        for _ in range(2):
            reg = MetricsRegistry()
            run_beamline(metrics=reg)
            texts.append(snapshot_to_json(validate_snapshot(reg.snapshot())))
        assert texts[0] == texts[1]

    def test_ambient_registry_collects(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            run_beamline()
        assert reg.get("sim_events_dispatched_total").labels().value > 0

    def test_chrome_trace_with_counters_validates(self):
        reg = MetricsRegistry(keep_timeseries=True)
        tracer = Tracer()
        run_beamline(tracer=tracer, metrics=reg)
        assert reg.timeseries
        doc = json.loads(json.dumps(
            to_chrome_trace(tracer, recorder=reg.timeseries)))
        validate_chrome_trace(doc)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert {e["name"] for e in counters} == set(reg.timeseries)


class TestCountersMatchResult:
    """Every harvested counter restates a result field exactly, also on
    a run where hedges add placements beyond one per task."""

    def test_counters_equal_result_fields(self):
        reg = MetricsRegistry()
        chaos = TaskChaos(seed=3, base_fail_prob=0.1,
                          base_straggler_prob=0.3, straggler_factor=8.0)
        result = run_beamline(metrics=reg, chaos=chaos,
                              resilience=ResiliencePolicy.full())
        stats = result.resilience
        assert stats.hedges_launched > 0
        assert len(result.decisions) > len(result.records)

        def total(name):
            return sum(child.value for _, child in reg.get(name).series())

        assert (total("scheduler_placement_decisions_total")
                == len(result.decisions))
        assert total("scheduler_tasks_completed_total") == len(result.records)
        assert total("netsim_bytes_moved_total") == result.bytes_moved
        assert total("resilience_attempts_total") == stats.attempts_total
        assert (total("resilience_hedges_launched_total")
                == stats.hedges_launched)


class TestZeroInterference:
    def test_metered_run_identical_to_bare(self):
        bare = run_beamline()
        metered = run_beamline(metrics=MetricsRegistry(keep_timeseries=True))
        traced_and_metered = run_beamline(tracer=Tracer(),
                                          metrics=MetricsRegistry())
        assert fingerprint(metered) == fingerprint(bare)
        assert fingerprint(traced_and_metered) == fingerprint(bare)


class TestKernelRegression:
    """Traced + metered runs must be bit-identical whichever event queue
    implementation the simulator uses."""

    def _run_with_queue(self, monkeypatch, queue_cls, metrics):
        monkeypatch.setattr("repro.simcore.simulation.EventQueue", queue_cls)
        tracer = Tracer()
        result = run_beamline(tracer=tracer, metrics=metrics)
        return result, tracer

    def test_traced_metered_runs_agree_across_kernels(self, monkeypatch):
        reg_prod = MetricsRegistry()
        prod, tr_prod = self._run_with_queue(monkeypatch, EventQueue,
                                             reg_prod)
        reg_heap = MetricsRegistry()
        heap, tr_heap = self._run_with_queue(monkeypatch, HeapEventQueue,
                                             reg_heap)
        assert fingerprint(prod) == fingerprint(heap)
        spans_prod = [(s.name, s.category, s.begin_s, s.end_s)
                      for s in tr_prod.finished()]
        spans_heap = [(s.name, s.category, s.begin_s, s.end_s)
                      for s in tr_heap.finished()]
        assert spans_prod == spans_heap

    def test_snapshots_agree_across_kernels_modulo_kernel_counters(
            self, monkeypatch):
        # the oracle's free-list counter aside (production has no free
        # list), the two kernels must meter the identical simulation
        reg_prod = MetricsRegistry()
        self._run_with_queue(monkeypatch, EventQueue, reg_prod)
        reg_heap = MetricsRegistry()
        self._run_with_queue(monkeypatch, HeapEventQueue, reg_heap)
        snap_heap = reg_heap.snapshot()
        del snap_heap["metrics"]["kernel_pool_reuses_total"]
        assert (snapshot_to_json(reg_prod.snapshot())
                == snapshot_to_json(snap_heap))
