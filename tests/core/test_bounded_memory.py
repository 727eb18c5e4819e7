"""Placement state is O(in-flight), not O(tasks ever run); what is kept
per task is kept lean.

Counting tests in the style of ``tests/netsim/test_network.py::
TestBoundedMemory``: they count entries, never RSS. A dataset's staging
arrays live until its last reader is placed (a retry or hedge rebuilds
what it reads and drops it again at its placement); the row memo holds
rows of the current (routes epoch, catalog version) stamp only; a
task's attempt state lives until it has its record and its last
attempt has ended.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.continuum import (
    Link,
    Tier,
    Topology,
    edge_cloud_pair,
    geo_random_continuum,
    zoo_topology,
)
from repro.continuum.builders import make_site
from repro.core import ContinuumScheduler, GreedyEFTStrategy, HEFTStrategy
from repro.core import DataGravityStrategy, scheduler
from repro.core.cost import CostModel
from repro.core.placement import TaskRecord
from repro.core.scheduler import StreamJob, _Run
from repro.datafabric import Dataset
from repro.faults import ChaosCampaign, OutageSchedule, SiteOutage, TaskChaos
from repro.observe import Tracer
from repro.resilience import (
    BreakerConfig,
    HedgePolicy,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.workflow import TaskSpec, WorkflowDAG
from repro.workloads import layered_random_dag, map_reduce_dag

ATTEMPT_STATE = ("attempts", "failures_of", "attempt_log", "_hedges_of")


class _NoRevival(dict):
    """A per-task dict that notes every key created for a task that
    already has its record (a dropped entry coming back). It notes
    rather than raises: an exception inside a simulated process would
    only end that process."""

    def __init__(self, records, initial, revived):
        super().__init__(initial)
        self._records = records
        self._revived = revived

    def __setitem__(self, key, value):
        if key not in self and key in self._records:
            self._revived.append(key)
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]


@pytest.fixture
def watched(monkeypatch):
    """Every ``_Run`` the test executes (``runs``), its attempt dicts
    watched for keys re-created after the task finished (``revived``)."""
    seen = SimpleNamespace(runs=[], revived=[])
    execute = _Run.execute

    def spy(self, until=None):
        seen.runs.append(self)
        for attr in ATTEMPT_STATE:
            setattr(self, attr, _NoRevival(
                self.records, getattr(self, attr), seen.revived))
        return execute(self, until)

    monkeypatch.setattr(_Run, "execute", spy)
    return seen


def assert_no_attempt_state(seen):
    run = seen.runs[-1]
    assert {attr: len(getattr(run, attr)) for attr in ATTEMPT_STATE} \
        == dict.fromkeys(ATTEMPT_STATE, 0)
    assert run._active_at == {}
    assert seen.revived == []


def stage_entries(run) -> int:
    return sum(map(len, run.ctx.cost._stage_cache.values()))


def fork_join_stream(n_jobs, *, refs=3, width=4, gap_s=20.0):
    """``n_jobs`` fork-join jobs, each reading its own input plus one of
    ``refs`` shared reference sets, spaced so each job drains before the
    next arrives (the in-flight work is constant)."""
    topo = geo_random_continuum(6, seed=0)
    sites = topo.site_names
    shared = [Dataset(f"ref{k}", 5e6) for k in range(refs)]
    jobs = []
    for j in range(n_jobs):
        ref, raw = shared[j % refs], Dataset(f"j{j}-in", 1e6)
        dag = WorkflowDAG(f"j{j}")
        parts = []
        for b in range(width):
            out = Dataset(f"j{j}-p{b}", 1e5)
            parts.append(out.name)
            dag.add_task(TaskSpec(f"j{j}-b{b}", work=2.0,
                                  inputs=(raw.name, ref.name),
                                  outputs=(out,)))
        dag.add_task(TaskSpec(f"j{j}-join", work=1.0, inputs=tuple(parts)))
        jobs.append(StreamJob(gap_s * j, dag, (
            (raw, sites[j % len(sites)]), (ref, sites[-1]))))
    return topo, jobs


class TestStageCacheBound:
    def test_entries_do_not_grow_with_stream_length(self, monkeypatch,
                                                    watched):
        """Entries sampled at each job arrival: no more at 4N jobs than
        at N, and none once the run is over."""
        samples = {}
        arrives = _Run._job_arrives

        def spy(self, idx):
            samples.setdefault(id(self), []).append(stage_entries(self))
            return arrives(self, idx)

        monkeypatch.setattr(_Run, "_job_arrives", spy)
        n = 12
        for n_jobs in (n, 4 * n):
            topo, jobs = fork_join_stream(n_jobs)
            ContinuumScheduler(topo).run_stream(jobs, GreedyEFTStrategy())
        runs = watched.runs
        short, long = (samples[id(run)] for run in runs)
        assert (len(short), len(long)) == (n, 4 * n)
        assert max(short) > 0   # the shared references stay cached
        assert max(long) <= max(short)
        assert [stage_entries(run) for run in runs] == [0, 0]

    def test_heft_rank_map_empties_after_a_stream(self):
        topo, jobs = fork_join_stream(8)
        strategy = HEFTStrategy()
        ContinuumScheduler(topo).run_stream(jobs, strategy)
        assert strategy._rank == {}


class _StoredRows(dict):
    """A row memo that also appends every row stored into it to
    ``stored``, which keeps them past the memo's clears."""

    def __init__(self, stored):
        super().__init__()
        self._stored = stored

    def __setitem__(self, key, row):
        self._stored.append(row)
        super().__setitem__(key, row)


class TestRowCacheOwnsMemory:
    def test_memoized_rows_hold_no_staging_block(self, monkeypatch):
        """Every array the row memo stores during a run owns its memory
        (or views a base of its own size): a row that views a task's
        ``(k x candidates)`` staging block pins the whole block for as
        long as the memo keeps the row."""
        stored = []
        init = CostModel.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._row_cache = _StoredRows(stored)

        monkeypatch.setattr(CostModel, "__init__", recording)
        topo, jobs = fork_join_stream(6, width=8)
        ContinuumScheduler(topo).run_stream(jobs, GreedyEFTStrategy())
        arrays = [a for _, _, row in stored for a in row]
        assert len(stored) >= 6   # the joins' rows at least
        assert all(a.base is None or a.base.size == a.size for a in arrays)

    @pytest.mark.parametrize("workload", ["map-reduce", "chaos"])
    def test_memo_holds_rows_of_the_current_stamp_only(self, monkeypatch,
                                                       workload):
        """After every ``estimate_batch`` each memoized row carries the
        model's current (routes epoch, catalog version) stamp: a row of
        an older stamp can never be read again."""
        stamps, stale = set(), []
        estimate = CostModel.estimate_batch

        def spy(self, task, sites):
            batch = estimate(self, task, sites)
            stamp = (self.topology.routes_epoch, self.catalog.version)
            stamps.add(stamp)
            stale.extend(key for key, row in self._row_cache.items()
                         if row[:2] != stamp)
            return batch

        monkeypatch.setattr(CostModel, "estimate_batch", spy)
        if workload == "chaos":
            chaos_run(seed=3)
        else:
            topo, jobs = map_reduce_stream()
            ContinuumScheduler(topo).run_stream(jobs, DataGravityStrategy())
        assert len(stamps) > 1   # the stamp moved during the run
        assert stale == []


def map_reduce_stream(n_jobs=3, maps=6, reduces=3):
    """A small ``shuffle``: overlapping map-reduce jobs whose
    intermediate partitions each have exactly one reader."""
    topo = geo_random_continuum(8, bandwidth_Bps=1.25e8, seed=0)
    edge = [s.name for s in topo.sites if s.tier.is_peripheral]
    jobs = []
    for j in range(n_jobs):
        dag, externals = map_reduce_dag(
            maps, reduces, input_bytes=2e8, intermediate_bytes=4e9,
            name=f"mr{j}")
        jobs.append(StreamJob(10.0 * j, dag, tuple(
            (d, edge[(j + k) % len(edge)]) for k, d in enumerate(externals))))
    return topo, jobs


@pytest.fixture
def unread_entries(monkeypatch, placed):
    """Sampled after every dispatch wave and every hedge check: the
    datasets that hold staging entries although every task reading
    them has been placed (``stale``), and the samples taken."""
    seen = SimpleNamespace(samples=0, stale=[])
    readers = {}

    def sample(run):
        if not readers:
            for job in run.jobs:
                for task in job.dag.tasks:
                    for dataset in task.inputs:
                        readers.setdefault(dataset, set()).add(task.name)
        done = {decision.task for decision in placed}
        seen.samples += 1
        seen.stale.extend(name for name in run.ctx.cost._stage_cache
                          if readers[name] <= done)

    dispatch = scheduler.wave_dispatch
    hedge = _Run._maybe_hedge

    def after_wave(run, batch, vetoed):
        dispatch(run, batch, vetoed)
        sample(run)

    def after_hedge(self, name, attempt_id):
        hedge(self, name, attempt_id)
        sample(self)

    monkeypatch.setattr(scheduler, "wave_dispatch", after_wave)
    monkeypatch.setattr(_Run, "_maybe_hedge", after_hedge)
    return seen


class TestStageEntriesFollowUnplacedReaders:
    """A dataset's staging arrays are dropped once its last reader is
    placed, not when that reader completes."""

    def test_map_reduce_stream(self, unread_entries, placed, watched):
        topo, jobs = map_reduce_stream()
        result = ContinuumScheduler(topo).run_stream(jobs,
                                                     DataGravityStrategy())
        assert len(placed) == len(result.records) == 3 * (6 + 3)
        assert unread_entries.samples >= 6
        assert unread_entries.stale == []
        assert stage_entries(watched.runs[-1]) == 0

    def test_chaos_run_with_retries_and_hedges(self, unread_entries, placed,
                                               watched):
        result = chaos_run(seed=3)
        stats = result.resilience
        assert stats.hedges_launched > 0 and stats.retries > 0
        assert len(placed) == stats.attempts_total
        assert unread_entries.samples >= 10
        assert unread_entries.stale == []
        assert stage_entries(watched.runs[-1]) == 0


def chaos_run(seed):
    topo = zoo_topology("multi-region", seed=0)
    dag, externals = layered_random_dag(60, n_levels=6, seed=seed,
                                        name="chaos")
    sites = [s.name for s in topo.sites if s.tier.is_peripheral]
    placed = [(d, sites[k % len(sites)]) for k, d in enumerate(externals)]
    plan = ChaosCampaign.preset("high", seed=seed).build(topo)
    sched = ContinuumScheduler(
        topo, seed=seed, transfer_failure_prob=plan.transfer_failure_prob,
        transfer_max_attempts=10)
    return sched.run(
        dag, GreedyEFTStrategy(), external_inputs=placed,
        failures=plan.outages, chaos=plan.task_chaos,
        resilience=ResiliencePolicy.full(max_attempts=100, seed=seed),
        task_retries=100)


class TestAttemptStateBound:
    def test_hedged_chaos_run_leaves_no_attempt_state(self, watched):
        result = chaos_run(seed=3)
        assert result.resilience.hedges_launched > 0
        assert result.resilience.attempts_total > len(result.records)
        assert_no_attempt_state(watched)


def late_loser_policy(**extra):
    return ResiliencePolicy(
        name="late-loser",
        retry=RetryPolicy(max_attempts=5, backoff_base_s=0.0),
        breaker=BreakerConfig(failure_threshold=1, **extra),
        hedge=HedgePolicy(trigger_factor=1.5, max_hedges=1),
    )


def breaker_opens(tracer):
    return [(s.begin_s, s.attrs["site"], s.attrs["failures"])
            for s in tracer.spans if s.name == "breaker_open"]


class TestLateHedgeLoser:
    """A hedge loser that is cut down by something other than the
    winner's cancel still sees the task's counts. Expected values were
    computed with the eagerly allocated state the scheduler used before
    attempt state became in-flight only; the two must agree."""

    def test_loser_cut_by_outage_at_the_winners_instant(self, watched):
        """The straggling edge primary loses to a cloud hedge; an edge
        outage starts at the very instant the hedge finishes."""
        topo = edge_cloud_pair(edge_speed=1.0, cloud_speed=8.0)
        dag = WorkflowDAG("late")
        dag.add_task(TaskSpec("t", work=8.0))
        chaos = TaskChaos(seed=7, degraded_straggler_prob=1.0,
                          straggler_factor=50.0,
                          degraded={"edge": ((0.0, 1000.0),)})
        failures = (OutageSchedule().add(SiteOutage("cloud", 0.5, 0.6))
                    .add(SiteOutage("edge", 13.5, 23.5)))
        tracer = Tracer()
        result = ContinuumScheduler(topo).run(
            dag, GreedyEFTStrategy(), failures=failures, chaos=chaos,
            resilience=late_loser_policy(reset_timeout_s=1.0),
            tracer=tracer)
        assert result.records["t"].site == "cloud"
        assert result.records["t"].exec_finished == 13.5
        assert result.records["t"].attempts == 3
        assert breaker_opens(tracer) == [(0.5, "cloud", 1),
                                         (13.5, "edge", 2)]
        assert dataclasses.asdict(result.resilience) == dict(
            policy="late-loser", attempts_total=3, retries=1,
            backoff_delay_s=0.0, budget_denials=0, breaker_trips=2,
            breaker_probes=1, hedges_launched=1, hedges_won=1,
            hedges_lost=0, timeouts=0, transient_faults=0, lost_tasks=0)
        assert_no_attempt_state(watched)

    def test_loser_timed_out_after_its_winner_completed(self, watched):
        """The cloud hedge queues behind a pinned straggler; its watchdog
        fires at the instant the edge primary wins, and is handled after
        the win, ahead of the cancel."""
        topo = Topology("late")
        topo.add_site(make_site("edge", Tier.EDGE, speed=1.0, slots=2))
        topo.add_site(make_site("cloud", Tier.CLOUD, speed=8.0, slots=1))
        topo.add_link("edge", "cloud", Link(0.0, 1e9))
        dag = WorkflowDAG("late")
        dag.add_task(TaskSpec("t", work=8.0))
        dag.add_task(TaskSpec("blocker", work=80.0, pinned_site="cloud"))
        chaos = TaskChaos(seed=7, degraded_straggler_prob=1.0,
                          straggler_factor=2.0,
                          degraded={"edge": ((0.0, 1.0),),
                                    "cloud": ((0.0, 1.0),)})
        failures = (OutageSchedule().add(SiteOutage("cloud", 0.0, 0.5))
                    .add(SiteOutage("edge", 0.25, 0.125)))
        policy = dataclasses.replace(
            late_loser_policy(reset_timeout_s=0.125), timeout_factor=4.0)
        tracer = Tracer()
        result = ContinuumScheduler(topo).run(
            dag, GreedyEFTStrategy(), failures=failures, chaos=chaos,
            resilience=policy, tracer=tracer)
        won = result.records["t"]
        assert (won.site, won.exec_finished, won.attempts) == \
            ("edge", 16.375, 3)
        order = [(s.name, s.attrs.get("site")) for s in tracer.spans
                 if s.begin_s == 16.375]
        assert order.index(("breaker_close", "edge")) \
            < order.index(("interrupted", "cloud"))
        assert breaker_opens(tracer) == [(0.25, "edge", 1),
                                         (16.375, "cloud", 2)]
        assert dataclasses.asdict(result.resilience) == dict(
            policy="late-loser", attempts_total=4, retries=1,
            backoff_delay_s=0.0, budget_denials=0, breaker_trips=2,
            breaker_probes=1, hedges_launched=1, hedges_won=0,
            hedges_lost=0, timeouts=1, transient_faults=0, lost_tasks=0)
        assert_no_attempt_state(watched)


@pytest.fixture
def placed(monkeypatch):
    """Every decision ``record_placement`` makes, in order."""
    made = []
    record = scheduler.record_placement

    def spy(run, *args):
        made.append(record(run, *args))
        return made[-1]

    monkeypatch.setattr(scheduler, "record_placement", spy)
    return made


class TestPerTaskState:
    """What a run keeps for each task: slotted records with no instance
    dict, and no decision log on stream runs."""

    def test_task_dataset_and_record_have_no_instance_dict(self):
        for obj in (TaskSpec("t", 1.0, outputs=(Dataset("d", 1),)),
                    Dataset("d", 1), TaskRecord("t", "site")):
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_stream_keeps_no_decision_log(self, placed, watched):
        topo, jobs = fork_join_stream(6)
        result = ContinuumScheduler(topo).run_stream(jobs,
                                                     GreedyEFTStrategy())
        assert len(placed) == len(result.records) == 6 * 5
        assert watched.runs[-1].decisions is None

    def test_run_returns_every_decision_in_order(self, placed):
        """A hedged chaos run: one decision per attempt placed, primaries
        and hedges alike, in the order they were made."""
        result = chaos_run(seed=3)
        assert result.resilience.hedges_launched > 0
        assert result.decisions == placed
        assert len(placed) == result.resilience.attempts_total
        assert {d.task for d in result.decisions} == set(result.records)
