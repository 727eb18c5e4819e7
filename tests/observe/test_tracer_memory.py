"""A tracer outlives its run without pinning it, and keeps spans as data.

Observability is meant to stay on: a caller that holds a ``Tracer`` and
a ``MetricsRegistry`` across many runs must hold spans and counters,
not every finished run's simulator, network and records. These tests
count objects and traced bytes, never RSS.
"""

import gc
import tracemalloc
import weakref
from collections import Counter

import pytest

from repro.continuum import zoo_topology
from repro.core import ContinuumScheduler, GreedyEFTStrategy
from repro.core import scheduler as scheduler_module
from repro.core.scheduler import StreamJob
from repro.errors import SchedulingError
from repro.faults import ChaosCampaign, TaskChaos
from repro.observe import MetricsRegistry, Tracer
from repro.resilience import ResiliencePolicy
from repro.workloads import layered_random_dag


@pytest.fixture
def sims(monkeypatch):
    """Weak references to every Simulator a run builds."""
    refs = []
    real = scheduler_module.Simulator

    def make(*args, **kwargs):
        sim = real(*args, **kwargs)
        refs.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(scheduler_module, "Simulator", make)
    return refs


def workload(seed=1, tasks=40):
    topo = zoo_topology("multi-region", seed=0)
    dag, externals = layered_random_dag(tasks, n_levels=4, seed=seed,
                                        name=f"pin{seed}")
    sites = [s.name for s in topo.sites if s.tier.is_peripheral]
    placed = [(d, sites[k % len(sites)]) for k, d in enumerate(externals)]
    return topo, dag, placed


def assert_released(sims):
    gc.collect()
    assert sims and all(ref() is None for ref in sims)


def clock_reading(tracer):
    """The time the tracer's clock reads now, taken by an instant."""
    tracer.instant("probe")
    return tracer.spans[-1].begin_s


class TestTracerDoesNotPinTheRun:
    def test_run_returns(self, sims):
        tracer, registry = Tracer(), MetricsRegistry()
        topo, dag, placed = workload()
        result = ContinuumScheduler(topo, seed=1).run(
            dag, GreedyEFTStrategy(), external_inputs=placed,
            tracer=tracer, metrics=registry)
        assert_released(sims)
        assert clock_reading(tracer) == result.makespan
        assert tracer.finished() and all(s.closed for s in tracer.spans)

    def test_run_raises(self, sims):
        tracer, registry = Tracer(), MetricsRegistry()
        topo, dag, placed = workload()
        with pytest.raises(SchedulingError, match="tasks failed"):
            ContinuumScheduler(topo, seed=1).run(
                dag, GreedyEFTStrategy(), external_inputs=placed,
                chaos=TaskChaos(seed=1, base_fail_prob=1.0),
                task_retries=0, tracer=tracer, metrics=registry)
        assert_released(sims)
        assert tracer.spans

    def test_run_stream_returns(self, sims):
        tracer, registry = Tracer(), MetricsRegistry()
        topo, dag, placed = workload()
        other, more = workload(seed=2)[1:]
        result = ContinuumScheduler(topo, seed=1).run_stream(
            [StreamJob(0.0, dag, tuple(placed)),
             StreamJob(5.0, other, tuple(more))],
            GreedyEFTStrategy(), tracer=tracer, metrics=registry)
        assert_released(sims)
        assert clock_reading(tracer) == result.last_finish

    def test_run_stream_stopped_early(self, sims):
        """An ``until`` stop leaves events queued that point back into
        the run; the tracer must still let go of it."""
        tracer, registry = Tracer(), MetricsRegistry()
        topo, dag, placed = workload()
        with pytest.raises(SchedulingError, match="unfinished"):
            ContinuumScheduler(topo, seed=1).run_stream(
                [StreamJob(0.0, dag, tuple(placed))], GreedyEFTStrategy(),
                until=1.0, tracer=tracer, metrics=registry)
        assert_released(sims)
        assert clock_reading(tracer) == 1.0
        assert not all(s.closed for s in tracer.spans)


def chaos_into(tracer, registry, seed=3):
    topo, dag, placed = workload(seed=seed, tasks=60)
    plan = ChaosCampaign.preset("high", seed=seed).build(topo)
    ContinuumScheduler(
        topo, seed=seed, transfer_failure_prob=plan.transfer_failure_prob,
        transfer_max_attempts=10,
    ).run(dag, GreedyEFTStrategy(), external_inputs=placed,
          failures=plan.outages, chaos=plan.task_chaos,
          resilience=ResiliencePolicy.full(max_attempts=100, seed=seed),
          task_retries=100, tracer=tracer, metrics=registry)


def census():
    gc.collect()
    return Counter(type(obj).__name__ for obj in gc.get_objects())


def test_no_tracked_object_per_span():
    """Repeating one traced chaos run into the same tracer adds spans
    but no GC-tracked object per span: spans are rows of atomic
    values, not objects."""
    tracer, registry = Tracer(), MetricsRegistry()
    chaos_into(tracer, registry)
    per_run = len(tracer.spans)
    assert per_run > 500
    before = census()
    for _ in range(3):
        chaos_into(tracer, registry)
    after = census()
    assert len(tracer.spans) == 4 * per_run
    grown = {name: after[name] - before[name] for name in after
             if after[name] - before[name] >= per_run // 10}
    assert grown == {}


def test_closed_span_bytes():
    """A closed span keeps its row and one packed attribute tuple, not
    the caller's kwargs dict. tracemalloc counts what dropping the
    tracer frees: about 195 B per span here, and about 330 B when rows
    held the dict."""
    tracer, registry = Tracer(), MetricsRegistry()
    tracemalloc.start()
    try:
        chaos_into(tracer, registry)
        spans = len(tracer.finished())
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        del tracer
        gc.collect()
        freed = kept - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spans > 500
    assert freed / spans < 260
