"""Tier-1 observability smoke: trace a run end to end and prove the
tracer changed nothing.

Covers the acceptance criteria for the tracing layer: a traced
scheduled workload exports valid Chrome trace-event JSON (monotonic
timestamps, matched begin/end pairs), every span closes, and enabling
tracing leaves the simulation bit-identical to an untraced run.
"""

import json

import pytest

from repro.continuum import science_grid
from repro.core import ContinuumScheduler, HEFTStrategy
from repro.faults import OutageSchedule, SiteOutage
from repro.observe import (
    Tracer,
    critical_path,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.workloads import beamline_pipeline


def run_beamline(tracer=None, failures=None):
    topo = science_grid()
    dag, externals = beamline_pipeline(4)
    peripheral = [s.name for s in topo.sites if s.tier.is_peripheral]
    placed = [(d, peripheral[i % len(peripheral)])
              for i, d in enumerate(externals)]
    result = ContinuumScheduler(topo, seed=0).run(
        dag, HEFTStrategy(), external_inputs=placed,
        failures=failures, tracer=tracer,
        task_retries=10 if failures else 0,
    )
    return result, dag


class TestTracedWorkload:
    def test_chrome_export_validates(self):
        tracer = Tracer()
        result, _dag = run_beamline(tracer)
        assert result.task_count > 0
        assert all(s.closed for s in tracer.spans)
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        count = validate_chrome_trace(doc)    # monotonic ts, matched B/E
        assert count > 0
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"B", "E", "i", "M"} <= phases

    def test_expected_span_taxonomy(self):
        tracer = Tracer()
        result, _dag = run_beamline(tracer)
        categories = {s.category for s in tracer.finished()}
        assert {"task", "exec", "transfer", "scheduler"} <= categories
        # one task span per task record, each with an exec child
        tasks = [s for s in tracer.spans if s.category == "task"]
        assert len(tasks) == result.task_count
        for tspan in tasks:
            kinds = {c.category for c in tracer.spans
                     if c.parent_id == tspan.span_id}
            assert "exec" in kinds
            assert tspan.attrs["site"] == result.records[
                tspan.name.removeprefix("task:")].site

    def test_span_times_match_records(self):
        tracer = Tracer()
        result, _dag = run_beamline(tracer)
        by_name = {s.name: s for s in tracer.spans if s.category == "task"}
        for name, rec in result.records.items():
            span = by_name[f"task:{name}"]
            assert span.end_s == pytest.approx(rec.exec_finished)
            exec_spans = [c for c in tracer.spans
                          if c.parent_id == span.span_id
                          and c.category == "exec"]
            assert exec_spans[-1].duration_s == pytest.approx(rec.exec_time)

    def test_critical_path_consistent(self):
        tracer = Tracer()
        result, dag = run_beamline(tracer)
        cp = critical_path(result, dag)
        assert cp.makespan_s == result.makespan   # exact, not approx
        fractions = cp.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fault_instants_recorded(self):
        tracer = Tracer()
        failures = OutageSchedule().add(SiteOutage("beamline-edge", 0.1, 5.0))
        run_beamline(tracer, failures=failures)
        fault_names = {s.name for s in tracer.spans if s.category == "fault"}
        assert {"site_down", "site_up"} <= fault_names
        doc = to_chrome_trace(tracer)
        validate_chrome_trace(doc)


class TestZeroInterference:
    def fingerprint(self, result):
        return (
            result.makespan,
            result.bytes_moved,
            result.energy_j,
            result.total_usd,
            {n: (r.site, r.stage_started, r.stage_finished,
                 r.exec_started, r.exec_finished, r.attempts)
             for n, r in result.records.items()},
        )

    def test_traced_run_identical_to_untraced(self):
        untraced, _ = run_beamline(tracer=None)
        traced, _ = run_beamline(tracer=Tracer())
        assert self.fingerprint(traced) == self.fingerprint(untraced)

    def test_traced_faulty_run_identical_to_untraced(self):
        failures = OutageSchedule().add(SiteOutage("beamline-edge", 0.1, 5.0))
        untraced, _ = run_beamline(failures=failures)
        failures = OutageSchedule().add(SiteOutage("beamline-edge", 0.1, 5.0))
        traced, _ = run_beamline(tracer=Tracer(), failures=failures)
        assert self.fingerprint(traced) == self.fingerprint(untraced)
