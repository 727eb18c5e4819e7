"""The continuum scheduler: execute workflow DAGs on a simulated continuum.

Two entry points share one engine:

- :meth:`ContinuumScheduler.run` — one DAG, returns a
  :class:`ScheduleResult` (measured makespan, data movement, energy,
  dollars, per-task lifecycles),
- :meth:`ContinuumScheduler.run_stream` — many DAGs arriving over time
  (the online continuum), returns a :class:`StreamResult` with per-job
  response times on top of the aggregate accounting.

Execution semantics per task:

1. becomes *ready* when all dependencies complete (and its job arrived),
2. the strategy picks a site (``pinned_site`` overrides),
3. all missing inputs stage to that site concurrently (shared flows
   dedupe via the transfer service),
4. the task queues for a worker slot, executes for
   ``work / site.effective_speed(kind)``, and
5. its outputs register as replicas at the site, releasing dependents.

Failure injection (an :class:`OutageSchedule`) interrupts staging/running
tasks at a dark site; they are re-placed by the strategy, and link
brownouts degrade live network capacity while planner estimates stay
stale. Site *storage* survives compute outages (replicas remain
fetchable). A :class:`~repro.faults.TaskChaos` injector additionally
fails or slows individual execution attempts on a deterministic
per-(task, attempt, site) key.

How failed attempts are *re-tried* is policy, and there is one
recovery path: a run given no
:class:`~repro.resilience.ResiliencePolicy` gets one named ``none``
(immediate requeue with at most ``task_retries`` retries). A richer
policy adds exponential backoff with seeded jitter and a run-wide
fast-retry budget, per-site circuit breakers consulted at placement
(open circuits are hidden from strategies; half-open circuits admit
one probe), per-attempt timeouts derived from the planner estimate,
and speculative hedging that races a straggling attempt against a
duplicate on another site and cancels the loser. Under every policy a
staging failure is retried like a transient fault. Every recovery
action is emitted as an ``observe`` span and counted in
:class:`~repro.resilience.ResilienceStats` on the result; hedged
duplicates are tracked attempt-by-attempt so makespan, utilization,
and wasted-work accounting stay exact.

Estimates used by strategies come from the same cost model but ignore
network contention — the planned-vs-measured gap is real and intended.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

from repro.continuum.topology import Topology
from repro.controlplane.cluster import ControlPlaneConfig
from repro.controlplane.runtime import ControlRuntime
from repro.core.context import SchedulingContext
from repro.core.placement import PlacementDecision, ScheduleResult, TaskRecord
from repro.core.strategies.base import PlacementStrategy
from repro.datafabric.catalog import ReplicaCatalog
from repro.datafabric.dataset import Dataset
from repro.datafabric.transfer import TransferService
from repro.errors import DataFabricError, SchedulingError
from repro.faults.campaign import TaskChaos
from repro.faults.outages import OutageSchedule, SiteOutage
from repro.faults.partitions import PartitionSchedule
from repro.netsim.network import FlowNetwork
from repro.observe.metrics import MetricsRegistry, current_registry
from repro.observe.recorder import MetricsRecorder
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.resilience.breaker import BreakerState
from repro.resilience.policy import ResiliencePolicy, ResilienceStats
from repro.resilience.retry import RetryPolicy
from repro.simcore.process import AllOf, Interrupt, Timeout
from repro.simcore.resources import Resource
from repro.simcore.simulation import Simulator
from repro.utils.rng import RngRegistry
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskSpec


class _TransientFault(Exception):
    """Internal: a chaos-injected mid-execution task fault."""

    def __init__(self, cause: str):
        self.cause = cause
        super().__init__(cause)


def wave_dispatch(run, batch, vetoed) -> None:
    """Place one ready batch task by task in :meth:`prioritize` order.

    Each chosen slot is reserved before the next task is selected, so
    every selection sees the earlier placements of its batch (the
    sequential EFT semantics) and the decision stream is bit-identical
    to the frozen task-at-a-time oracle in ``tests/oracles/dispatch.py``
    — the speedup comes from the memoized cost rows read by
    ``estimate_finish_at`` and the incrementally-maintained
    availability vectors underneath, not from reordering. Module-level
    so ``scalar_engine()`` can patch the oracle in, both for the
    differential runs and for ``benchmarks/bench_scheduler.py``, which
    times the two engines on real runs.
    """
    for task in run.strategy.prioritize(batch, run.ctx):
        if task.pinned_site and run.ctx.is_down(task.pinned_site):
            # pinned to a dark site: hold until it recovers
            # (pins override breaker vetoes — there is no choice)
            run.ready.append(task)
            continue
        try:
            site_name = task.pinned_site or run.strategy.select_site(
                task, run.ctx
            )
        except SchedulingError:
            if run.failures is not None or vetoed:
                # transiently unplaceable (e.g. the strategy's whole
                # tier is dark or vetoed): hold until recovery
                run.ready.append(task)
                continue
            raise
        if site_name not in run.resources:
            raise SchedulingError(
                f"strategy chose non-candidate site {site_name!r} "
                f"for task {task.name!r}"
            )
        estimate = run.ctx.estimate_finish_at(task, site_name)
        decision = record_placement(run, task, site_name, *estimate)
        run._start_attempt(task, site_name, decision)


def record_placement(run, task, site_name, stage_s, exec_s,
                     est_finish) -> PlacementDecision:
    """The one placement tail, shared by primaries, retries and hedges:
    reserve the site's slot estimate, record the decision and count it,
    then let the cost model forget inputs no reader is left to place."""
    run.ctx.reserve(site_name, est_finish)
    decision = PlacementDecision(
        task=task.name, site=site_name, decided_at=run.sim.now,
        est_stage_s=stage_s, est_exec_s=exec_s, est_finish=est_finish,
    )
    if run.decisions is not None:
        run.decisions.append(decision)
    counters = run._m_decisions
    if counters is not None:
        counter = counters.get(site_name)
        if counter is None:
            counter = counters[site_name] = run._m_decision_family.labels(
                site=site_name, strategy=run.strategy.name)
        counter.inc()
    run._placed(task)
    return decision


@dataclass(frozen=True)
class StreamJob:
    """One workflow instance in an online stream."""

    arrival_s: float
    dag: WorkflowDAG
    external_inputs: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise SchedulingError(
                f"arrival_s must be finite and >= 0, got {self.arrival_s}"
            )


@dataclass
class JobResult:
    """Per-job outcome within a stream run."""

    name: str
    arrival_s: float
    finished_s: float
    task_count: int

    @property
    def response_time(self) -> float:
        return self.finished_s - self.arrival_s


@dataclass
class StreamResult:
    """Outcome of an online stream of workflows."""

    strategy: str
    jobs: list[JobResult]
    records: dict[str, TaskRecord]
    bytes_moved: float
    transfer_usd: float
    compute_usd: float
    energy_j: float
    interruptions: int = 0
    wasted_exec_s: float = 0.0
    resilience: ResilienceStats | None = None
    control: object | None = None   # ControlPlaneStats on replicated runs

    @property
    def last_finish(self) -> float:
        return max((j.finished_s for j in self.jobs), default=0.0)

    @property
    def mean_response_time(self) -> float:
        if not self.jobs:
            return float("nan")
        return sum(j.response_time for j in self.jobs) / len(self.jobs)


class ContinuumScheduler:
    """Reusable runner: one topology, many executions."""

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        transfer_failure_prob: float = 0.0,
        transfer_max_attempts: int = 3,
        candidate_sites: list[str] | None = None,
    ):
        topology.validate()
        self.topology = topology
        self.seed = seed
        self.transfer_failure_prob = transfer_failure_prob
        self.transfer_max_attempts = transfer_max_attempts
        self.candidate_sites = candidate_sites

    # -- public API ----------------------------------------------------------------
    def run(
        self,
        dag: WorkflowDAG,
        strategy: PlacementStrategy,
        *,
        external_inputs: Iterable[tuple[Dataset, str]] = (),
        failures: OutageSchedule | None = None,
        chaos: TaskChaos | None = None,
        resilience: ResiliencePolicy | None = None,
        task_retries: int = 2,
        until: float | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        control: ControlPlaneConfig | None = None,
        partitions: PartitionSchedule | None = None,
    ) -> ScheduleResult:
        """Execute one ``dag`` under ``strategy``.

        ``external_inputs`` provides (dataset, site) pairs for every
        dataset the DAG consumes but does not produce. Raises
        :class:`SchedulingError` on missing externals or failed tasks.
        ``failures`` injects site outages and link brownouts; ``chaos``
        injects per-attempt transient faults and stragglers;
        ``resilience`` selects the recovery policy (``None`` means a
        policy named ``none``: immediate requeue with at most
        ``task_retries`` retries). Staging failures are retried under
        every policy. Pass a :class:`~repro.observe.Tracer` to record
        per-task, per-transfer, fault-injection, and recovery spans;
        tracing never changes the schedule (it only reads the clock).
        ``metrics`` selects the registry run counters/histograms are
        emitted into (default: the ambient registry installed with
        :func:`repro.observe.use_registry`, disabled unless one is
        installed); like tracing, metrics are zero-interference.

        ``control`` opts the run into the replicated control plane: all
        metadata reads (placement rounds, transfer sources) go through
        the configured read mode, every replica mutation becomes a
        replicated write, and the result carries ``ControlPlaneStats``.
        ``partitions`` (requires ``control``) splits the control sites
        per the schedule. With ``control=None`` (the default) the
        single-copy path runs bit-identically to previous releases.
        """
        dag.validate()
        job = StreamJob(0.0, dag, tuple(external_inputs))
        run = _Run(self, [job], strategy, keep_decisions=True,
                   failures=failures, chaos=chaos, resilience=resilience,
                   task_retries=task_retries, tracer=tracer,
                   metrics=metrics, control=control, partitions=partitions)
        run.execute(until=until)
        return run.single_result()

    def run_stream(
        self,
        jobs: Iterable[StreamJob],
        strategy: PlacementStrategy,
        *,
        failures: OutageSchedule | None = None,
        chaos: TaskChaos | None = None,
        resilience: ResiliencePolicy | None = None,
        task_retries: int = 2,
        until: float | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        control: ControlPlaneConfig | None = None,
        partitions: PartitionSchedule | None = None,
    ) -> StreamResult:
        """Execute an online stream of workflow instances.

        Jobs become schedulable at their arrival times and share the
        continuum (and its queues) — the setting where offered load,
        not just placement quality, drives response times. Task names
        and dataset names must be unique across all jobs (use per-job
        name prefixes, as the workload builders do).
        """
        job_list = sorted(jobs, key=lambda j: j.arrival_s)
        if not job_list:
            raise SchedulingError("run_stream needs at least one job")
        for job in job_list:
            job.dag.validate()
        run = _Run(self, job_list, strategy,
                   failures=failures, chaos=chaos, resilience=resilience,
                   task_retries=task_retries, tracer=tracer,
                   metrics=metrics, control=control, partitions=partitions)
        run.execute(until=until)
        return run.stream_result()


class _Run:
    """Single-execution state (kept off the reusable scheduler)."""

    def __init__(self, sched: ContinuumScheduler, jobs: list[StreamJob],
                 strategy: PlacementStrategy,
                 failures: OutageSchedule | None = None,
                 chaos: TaskChaos | None = None,
                 resilience: ResiliencePolicy | None = None,
                 task_retries: int = 2,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 control: ControlPlaneConfig | None = None,
                 partitions: PartitionSchedule | None = None,
                 keep_decisions: bool = False):
        self.jobs = jobs
        self.strategy = strategy
        self.failures = failures
        self.chaos = chaos if (chaos is not None and not chaos.empty) else None
        if task_retries < 0:
            raise SchedulingError(f"task_retries must be >= 0, got {task_retries}")
        if resilience is None:  # immediate requeue, task_retries retries
            resilience = ResiliencePolicy(
                name="none", retry=RetryPolicy(max_attempts=task_retries + 1))
        self.resilience = resilience
        self.budget = resilience.make_budget()
        self.breakers = resilience.make_breakers()
        self.hedge = resilience.hedge
        self.stats = ResilienceStats(policy=resilience.name)
        self.sim = Simulator()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            tracer.bind(self.sim)   # until execute ends
        self.rngs = RngRegistry(sched.seed)
        self.network = FlowNetwork(self.sim, sched.topology, tracer=tracer)
        # replicated control plane (opt-in): the catalog becomes a
        # mirror whose mutations replicate across N control sites, and
        # planner/transfer reads go through the configured read mode.
        # With control=None nothing below this block changes behaviour.
        if partitions is not None and not partitions.empty \
                and control is None:
            raise SchedulingError(
                "partitions require a control plane (pass control=...)"
            )
        self.control = None
        if control is not None:
            self.control = ControlRuntime(control, sched.topology,
                                          rngs=self.rngs)
            self.control.bind_clock(lambda: self.sim.now)
        self.partitions = partitions
        self.catalog = (self.control.catalog if self.control is not None
                        else ReplicaCatalog())
        self._ctl_view = self.control.view if self.control is not None else None
        self._ctl_read_state = "idle"
        self.transfers = TransferService(
            self.sim, self.network, self.catalog,
            failure_prob=sched.transfer_failure_prob,
            max_attempts=sched.transfer_max_attempts,
            rngs=self.rngs,
            view=self._ctl_view,
        )
        self.ctx = SchedulingContext(
            sched.topology, self.catalog, rngs=self.rngs,
            candidate_sites=sched.candidate_sites,
            view=self._ctl_view,
        )
        self.resources = {
            site.name: Resource(self.sim, site.slots, name=site.name)
            for site in self.ctx.candidates
        }
        # cross-job task bookkeeping (names must be globally unique).
        # remaining counts each unplaced task's unfinished dependencies;
        # a task leaves it at its first placement. _readers counts each
        # dataset's unplaced reader tasks: at zero only a retry or hedge
        # of a placed reader can estimate the dataset again, so the
        # cost model drops its staging arrays (see _placed).
        self._dag_of: dict[str, WorkflowDAG] = {}
        # a task's job is found through its DAG: one entry per job
        self._job_of_dag: dict[WorkflowDAG, int] = {}
        self.remaining: dict[str, int] = {}
        self._readers: dict[str, int] = {}
        for idx, job in enumerate(jobs):
            self._job_of_dag[job.dag] = idx
            for task in job.dag.tasks:
                name = task.name
                if name in self._dag_of:
                    raise SchedulingError(
                        f"duplicate task name {name!r} across stream jobs"
                    )
                self._dag_of[name] = job.dag
                self.remaining[name] = len(job.dag.dependencies(name))
                for dataset in task.inputs:
                    self._readers[dataset] = self._readers.get(dataset, 0) + 1
        self._job_pending = [len(job.dag) for job in jobs]
        self._job_finish = [0.0 for _ in jobs]
        self._register_datasets()

        self.ready: list[TaskSpec] = []
        self._dispatch_scheduled = False
        self.records: dict[str, TaskRecord] = {}
        # the decision log is returned by ScheduleResult only: a stream
        # run keeps none, so its memory does not grow with its tasks
        self.decisions: list[PlacementDecision] | None = (
            [] if keep_decisions else None)
        self.failed_tasks: dict[str, BaseException] = {}
        self.compute_usd = 0.0
        self.energy_j = 0.0
        self.site_busy: dict[str, float] = {s.name: 0.0 for s in self.ctx.candidates}
        # per-task attempt state, kept only while the task is in flight:
        # entries appear on first use and _settle drops them once the
        # task has its record and its last attempt has ended
        self.attempts: dict[str, int] = {}
        self.failures_of: dict[str, int] = {}
        self.attempt_log: dict[str, list[str]] = {}
        self._hedges_of: dict[str, int] = {}
        # task -> attempt_id -> (Process, site); several attempts of one
        # task run concurrently only while a hedge duplicate races
        self._active_at: dict[str, dict[int, tuple]] = {}
        self._attempt_seq = 0
        self._timeout_events: dict[int, object] = {}
        self._probe_wake_at: float | None = None
        self.interruptions = 0
        self.wasted_exec_s = 0.0
        # failure-injection state: overlapping outages of one site are
        # reference-counted (the site stays dark until every active
        # outage has ended); brownout factors per link are stacked and
        # applied to the topology's *base* bandwidth, so restoration is
        # bit-exact no matter how outages and brownouts interleave
        self._down_depth: dict[str, int] = {}
        self._brownout_factors: dict[frozenset, list[float]] = {}
        if failures is not None:
            failures.validate_against(sched.topology)
        # metrics (opt-in, ambient by default): one registry serves the
        # whole run; when it keeps timeseries, the recorder samples gauge
        # probes on sim-clock ticks. Both are clock-passive, so an
        # instrumented run stays bit-identical to a bare one.
        self.metrics = metrics if metrics is not None else current_registry()
        self.recorder: MetricsRecorder | None = None
        self._m_decisions = None
        if self.metrics.enabled:
            self._init_metrics()

    def _init_metrics(self) -> None:
        # children resolved once: histograms here, decisions per site
        m = self.metrics
        self._m_decision_family = m.counter(
            "scheduler_placement_decisions_total",
            "Placement decisions by chosen site and strategy",
            ("site", "strategy"))
        self._m_decisions = {}
        self._m_queue_wait, self._m_stage, self._m_exec = (
            m.histogram(name, help_, start=1e-3, factor=2.0,
                        count=36).labels()
            for name, help_ in (
                ("scheduler_task_queue_wait_seconds",
                 "Wait for a worker slot after inputs arrived"),
                ("scheduler_task_stage_seconds",
                 "Input staging time per completed task"),
                ("scheduler_task_exec_seconds",
                 "Execution time per completed task"),
            ))
        if not m.keep_timeseries:
            return      # nothing would read the sampled series
        rec = self.recorder = MetricsRecorder()
        self.sim.attach_recorder(rec)
        sim, net = self.sim, self.network
        rec.add_probe("kernel_queue_depth", lambda: sim.pending)
        rec.add_probe("kernel_events_dispatched", lambda: sim.event_count)
        rec.add_probe("netsim_flows_active", lambda: net.active_flow_count)
        rec.add_probe("scheduler_ready_tasks", lambda: len(self.ready))
        rec.add_probe("scheduler_tasks_completed", lambda: len(self.records))

    def _emit_metrics(self) -> None:
        """End-of-run harvest: each owner emits its own stats, then the
        scheduler its own (all from simulated time; counters accumulate
        across runs sharing one registry)."""
        m = self.metrics
        self._final_stats()
        for owner in (self.sim, self.network, self.stats, self.control):
            if owner is not None:
                owner.emit_metrics(m)
        m.emit((
            ("scheduler_tasks_completed_total",
             "Tasks that ran to completion", len(self.records)),
            ("scheduler_interruptions_total",
             "Attempts cut down by site outages", self.interruptions),
            ("scheduler_wasted_exec_seconds_total",
             "Execution seconds lost to interrupts/hedges/faults",
             self.wasted_exec_s),
            ("scheduler_compute_usd_total",
             "Compute spend across completed work", self.compute_usd),
            ("scheduler_energy_joules_total",
             "Marginal energy across completed work", self.energy_j),
        ))
        m.emit([("scheduler_last_makespan_seconds",
                 "Makespan of the last run emitted into this registry",
                 self.makespan)], kind="gauge")
        if m.keep_timeseries:
            m.timeseries = dict(self.recorder.series)

    def _register_datasets(self) -> None:
        """Register every dataset definition up front; external replicas
        appear at each job's arrival, outputs when produced."""
        for job in self.jobs:
            provided = set()
            for dataset, site in job.external_inputs:
                if site not in self.ctx.topology:
                    raise SchedulingError(
                        f"external input {dataset.name!r} placed at unknown "
                        f"site {site!r}"
                    )
                self.catalog.register(dataset)
                provided.add(dataset.name)
            missing = job.dag.external_inputs() - provided
            if missing:
                raise SchedulingError(
                    f"external inputs without a source site: {sorted(missing)}"
                )
            for task in job.dag.tasks:
                for out in task.outputs:
                    self.catalog.register(out)

    # -- main loop --------------------------------------------------------------------
    def execute(self, until: float | None = None) -> None:
        self._arm_failures()
        for idx, job in enumerate(self.jobs):
            self.sim.schedule_at(job.arrival_s, self._job_arrives, idx)
        try:
            self.sim.run(until=until)
        finally:
            if self.tracer is not NULL_TRACER:   # let go of the run
                self.tracer.bind(lambda end=self.sim.now: end)

        if self.failed_tasks:
            failed = ", ".join(sorted(self.failed_tasks))
            self.stats.lost_tasks = len(self.failed_tasks)
            raise SchedulingError(
                f"tasks failed during run: {failed}"
            ) from next(iter(self.failed_tasks.values()))
        unfinished = [n for n in self._dag_of if n not in self.records]
        if unfinished:
            raise SchedulingError(
                f"run ended with unfinished tasks: {sorted(unfinished)} "
                f"(until-limit too small or deadlocked staging)"
            )
        if self.metrics.enabled:
            self._emit_metrics()

    def _job_arrives(self, idx: int) -> None:
        job = self.jobs[idx]
        for dataset, site in job.external_inputs:
            if self.control is not None:
                # external inputs pre-exist in the federation: their
                # metadata ships with the job submission and is already
                # replicated (no lag) — staleness applies to the
                # *dynamic* replicas the run creates
                self.catalog.bootstrap_replica(dataset.name, site,
                                               time=self.sim.now)
            else:
                self.catalog.add_replica(dataset.name, site, time=self.sim.now)
        self.ctx.set_now(self.sim.now)
        self.strategy.prepare(job.dag, self.ctx)
        for name in job.dag.task_names:
            if self.remaining[name] == 0:
                self.ready.append(job.dag.task(name))
                self.tracer.instant("ready", "scheduler", task=name)
        self._schedule_dispatch()

    # -- results --------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        return max((r.exec_finished for r in self.records.values()),
                   default=0.0)

    def _final_stats(self) -> ResilienceStats:
        if self.breakers is not None:
            self.stats.breaker_trips = self.breakers.total_trips
            self.stats.breaker_probes = self.breakers.total_probes
        if self.budget is not None:
            self.stats.budget_denials = self.budget.denied
        return self.stats

    def _totals(self) -> dict:
        """The accounting both result types carry."""
        return dict(
            strategy=self.strategy.name,
            records=self.records,
            bytes_moved=self.network.total_bytes_moved,
            transfer_usd=self.network.total_transfer_cost_usd,
            compute_usd=self.compute_usd,
            energy_j=self.energy_j,
            interruptions=self.interruptions,
            wasted_exec_s=self.wasted_exec_s,
            resilience=self._final_stats(),
            control=(self.control.stats if self.control is not None
                     else None),
        )

    def single_result(self) -> ScheduleResult:
        return ScheduleResult(
            workflow=self.jobs[0].dag.name, makespan=self.makespan,
            decisions=self.decisions, site_busy_s=self.site_busy,
            **self._totals(),
        )

    def stream_result(self) -> StreamResult:
        jobs = [
            JobResult(
                name=job.dag.name,
                arrival_s=job.arrival_s,
                finished_s=self._job_finish[idx],
                task_count=len(job.dag),
            )
            for idx, job in enumerate(self.jobs)
        ]
        return StreamResult(jobs=jobs, **self._totals())

    # -- failure injection ---------------------------------------------------------
    def _arm_failures(self) -> None:
        if self.control is not None and self.partitions is not None \
                and not self.partitions.empty:
            self.control.arm_partitions(self.sim, self.partitions)
        if self.failures is None or self.failures.empty:
            return
        for outage in self.failures.site_outages:
            self.sim.schedule_at(outage.start_s, self._site_down, outage)
            self.sim.schedule_at(outage.end_s, self._site_up, outage.site)
        for brownout in self.failures.link_brownouts:
            self.sim.schedule_at(brownout.start_s, self._brownout,
                                 brownout, True)
            self.sim.schedule_at(brownout.end_s, self._brownout,
                                 brownout, False)

    def _site_down(self, outage: SiteOutage) -> None:
        self._down_depth[outage.site] = self._down_depth.get(outage.site, 0) + 1
        self.tracer.instant("site_down", "fault", site=outage.site,
                            depth=self._down_depth[outage.site])
        if self.control is not None and self._down_depth[outage.site] == 1:
            # registry learns of the death through the replicated log;
            # stale readers keep routing to the corpse until it commits
            self.catalog.endpoint_down(outage.site)
        if outage.site in self.resources:
            self.ctx.mark_down(outage.site)
        victims = [
            (name, proc)
            for name, attempts in self._active_at.items()
            for _aid, (proc, site) in attempts.items()
            if site == outage.site
        ]
        for _name, proc in victims:
            proc.interrupt(cause=f"outage@{outage.site}")

    def _site_up(self, site: str) -> None:
        # overlapping outages are reference-counted: the site recovers
        # only when its *last* active outage ends
        depth = self._down_depth.get(site, 1) - 1
        self._down_depth[site] = depth
        self.tracer.instant("site_up", "fault", site=site, depth=depth)
        if depth > 0:
            return
        if self.control is not None:
            self.catalog.endpoint_up(site)
        self.ctx.mark_up(site)
        if self.ready:
            self._schedule_dispatch()

    def _brownout(self, brownout, begin: bool) -> None:
        # apply the product of all active factors to the *base* link
        # bandwidth: composes with overlaps and restores bit-exactly
        # (never round-trips the live value through a division)
        key = frozenset((brownout.a, brownout.b))
        factors = self._brownout_factors.setdefault(key, [])
        if begin:
            factors.append(brownout.factor)
        else:
            factors.remove(brownout.factor)
        bandwidth = self.network.topology.link(brownout.a,
                                               brownout.b).bandwidth_Bps
        for factor in factors:
            bandwidth *= factor
        # interned: the trace keeps one label per link, not one per event
        self.tracer.instant(
            "brownout_begin" if begin else "brownout_end", "fault",
            link=sys.intern(f"{brownout.a}--{brownout.b}"),
            factor=brownout.factor, bandwidth_Bps=bandwidth,
        )
        self.network.set_link_bandwidth(brownout.a, brownout.b, bandwidth)

    # -- dispatch --------------------------------------------------------------------
    def _schedule_dispatch(self) -> None:
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.sim._wakeup(0.0, self._dispatch, ())

    def _breaker_vetoes(self) -> set[str]:
        """Candidate sites whose circuit is currently open."""
        if self.breakers is None:
            return set()
        now = self.sim.now
        return {
            s.name for s in self.ctx.candidates
            if self.breakers.blocked(s.name, now)
        }

    def _schedule_probe_wake(self) -> None:
        """Re-dispatch when the earliest open breaker half-opens, so
        work held back by vetoes is not stranded."""
        if self.breakers is None:
            return
        t = self.breakers.next_probe_at(self.sim.now)
        if t is None or t <= self.sim.now:
            return
        if self._probe_wake_at is not None and self._probe_wake_at <= t:
            return
        self._probe_wake_at = t
        self.sim.schedule_at(t, self._probe_wake)

    def _probe_wake(self) -> None:
        self._probe_wake_at = None
        if self.ready:
            self._schedule_dispatch()

    def _ctl_read_begin(self) -> bool:
        """Pay for one control-plane placement read before a dispatch
        round. Returns True when the round may proceed now (the read
        resolved instantly or was already paid); otherwise the round is
        deferred until the read's simulated latency elapses. Tasks going
        ready in the interim ride the same round — one read serves the
        whole batch, like one scheduler loop against one metadata page.
        """
        if self._ctl_read_state == "waiting":
            return False
        if self._ctl_read_state == "ready":
            self._ctl_read_state = "idle"
            return True
        latency = self.control.session.placement_read(self.sim.now)
        if latency <= 0.0:
            return True
        self._ctl_read_state = "waiting"
        self.sim.schedule(latency, self._ctl_read_done)
        return False

    def _ctl_read_done(self) -> None:
        self._ctl_read_state = "ready"
        if self.ready:
            self._schedule_dispatch()
        else:
            self._ctl_read_state = "idle"

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if not self.ready:
            return
        if self.control is not None and not self._ctl_read_begin():
            return
        self.ctx.set_now(self.sim.now)
        vetoed = self._breaker_vetoes()
        self.ctx.set_vetoed(vetoed)
        try:
            if not self.ctx.candidates:
                # every candidate site is dark or vetoed: hold the ready
                # set until a recovery event or probe re-triggers dispatch
                self._schedule_probe_wake()
                return
            batch, self.ready = self.ready, []
            wave_dispatch(self, batch, vetoed)
            if self.ready:
                self._schedule_probe_wake()
        finally:
            self.ctx.set_vetoed(())

    # -- attempt lifecycle -----------------------------------------------------------
    def _placed(self, task: TaskSpec) -> None:
        """``task`` was just placed. Its first placement stops it
        counting as a reader of its inputs; after every placement each
        input with no reader left to place loses its staging arrays. A
        retry or hedge rebuilds the entries it reads (the same floats)
        and drops them again here."""
        first = self.remaining.pop(task.name, None) is not None
        readers = self._readers
        for dataset in task.inputs:
            if first:
                readers[dataset] -= 1
                if readers[dataset] == 0:
                    del readers[dataset]
            if dataset not in readers:
                self.ctx.cost.forget_dataset(dataset)

    def _start_attempt(self, task: TaskSpec, site_name: str,
                       decision: PlacementDecision,
                       is_hedge: bool = False) -> None:
        """Launch one execution attempt (primary or hedge duplicate)."""
        attempt_id = self._attempt_seq
        self._attempt_seq += 1
        now = self.sim.now
        if self.breakers is not None:
            breaker = self.breakers.get(site_name)
            if breaker.state(now) is BreakerState.HALF_OPEN:
                breaker.note_probe(now)
                self.tracer.instant("breaker_probe", "resilience",
                                    site=site_name, task=task.name)
        proc = self.sim.process(
            self._task_proc(task, site_name, decision, attempt_id,
                            is_hedge=is_hedge),
            name=f"task:{task.name}#{attempt_id}",
        )
        self._active_at.setdefault(task.name, {})[attempt_id] = (proc, site_name)
        timeout_s = self.resilience.attempt_timeout_s(
            decision.est_stage_s + decision.est_exec_s
        )
        if timeout_s is not None:
            self._timeout_events[attempt_id] = self.sim.schedule(
                timeout_s, self._attempt_timeout,
                task.name, attempt_id, site_name, timeout_s,
            )
        if (self.hedge is not None and not is_hedge
                and task.pinned_site is None
                and self._hedges_of.get(task.name, 0) < self.hedge.max_hedges):
            self.sim.schedule_at(
                self.hedge.hedge_at(now, decision.est_finish),
                self._maybe_hedge, task.name, attempt_id,
            )

    def _end_attempt(self, name: str, attempt_id: int) -> None:
        """Drop attempt bookkeeping (watchdog event included)."""
        attempts = self._active_at.get(name)
        if attempts is not None:
            attempts.pop(attempt_id, None)
            if not attempts:
                del self._active_at[name]
        event = self._timeout_events.pop(attempt_id, None)
        if event is not None:
            self.sim.cancel(event)

    def _attempt_timeout(self, name: str, attempt_id: int,
                         site_name: str, timeout_s: float) -> None:
        """Watchdog: an attempt exceeded its policy deadline."""
        self._timeout_events.pop(attempt_id, None)
        entry = self._active_at.get(name, {}).get(attempt_id)
        if entry is None:
            return
        proc, _site = entry
        self.stats.timeouts += 1
        self.tracer.instant("attempt_timeout", "resilience", task=name,
                            site=site_name, timeout_s=timeout_s)
        proc.interrupt(cause=f"timeout@{site_name}")

    def _maybe_hedge(self, name: str, attempt_id: int) -> None:
        """Hedge-check fired: duplicate the attempt if it is straggling."""
        if name in self.records:
            return
        attempts = self._active_at.get(name)
        if not attempts or attempt_id not in attempts:
            return   # that attempt already ended; its successor re-arms
        if self._hedges_of.get(name, 0) >= self.hedge.max_hedges:
            return
        task = self._dag_of[name].task(name)
        self.ctx.set_now(self.sim.now)
        running_sites = {site for _proc, site in attempts.values()}
        self.ctx.set_vetoed(self._breaker_vetoes() | running_sites)
        try:
            if not self.ctx.candidates:
                return
            try:
                site_name = self.strategy.select_site(task, self.ctx)
            except SchedulingError:
                return
            if site_name not in self.resources:
                return
        finally:
            self.ctx.set_vetoed(())
        decision = record_placement(
            self, task, site_name,
            *self.ctx.estimate_finish_at(task, site_name))
        self._hedges_of[name] = self._hedges_of.get(name, 0) + 1
        self.stats.hedges_launched += 1
        self.tracer.instant("hedge_launch", "resilience", task=name,
                            site=site_name, racing=sorted(running_sites))
        self._start_attempt(task, site_name, decision, is_hedge=True)

    def _task_proc(self, task: TaskSpec, site_name: str,
                   decision: PlacementDecision, attempt_id: int,
                   is_hedge: bool = False):
        site = self.ctx.site(site_name)
        attempt_no = self.attempts[task.name] = (
            self.attempts.get(task.name, 0) + 1)
        self.stats.attempts_total += 1
        record = TaskRecord(
            task=task.name, site=site_name, kind=task.kind,
            ready_at=self.sim.now, deadline_s=task.deadline_s,
            attempts=attempt_no,
        )
        tracer = self.tracer
        tspan = tracer.begin(
            f"task:{task.name}", "task", site=site_name, kind=task.kind,
            attempt=attempt_no, hedge=is_hedge,
            est_stage_s=decision.est_stage_s,
            est_exec_s=decision.est_exec_s,
            est_finish=decision.est_finish,
        )
        phase = None   # the open child span, closed on interrupt/failure
        req = None
        exec_started = False
        try:
            record.stage_started = self.sim.now
            phase = tracer.begin("stage", "stage", parent=tspan)
            if task.inputs:
                results = yield AllOf(
                    [self.transfers.stage(name, site_name) for name in task.inputs]
                )
                record.bytes_staged = sum(r.bytes_moved for r in results)
            record.stage_finished = self.sim.now
            tracer.end(phase, bytes=record.bytes_staged)

            phase = tracer.begin("queue", "queue", parent=tspan)
            req = self.resources[site_name].request()
            yield req
            tracer.end(phase)
            record.exec_started = self.sim.now
            exec_started = True
            phase = tracer.begin("exec", "exec", parent=tspan)
            exec_time = site.service_time(task.work, kind=task.kind)
            fate = None
            if self.chaos is not None:
                fate = self.chaos.fate(task.name, attempt_no, site_name,
                                       self.sim.now)
                if fate.slowdown > 1.0:
                    exec_time *= fate.slowdown
                    self.tracer.instant(
                        "chaos_straggler", "fault", task=task.name,
                        site=site_name, slowdown=fate.slowdown,
                    )
            if fate is not None and fate.fail_after_frac is not None:
                partial = exec_time * fate.fail_after_frac
                if partial > 0:
                    yield Timeout(partial)
                raise _TransientFault(f"transient@{site_name}")
            if exec_time > 0:
                yield Timeout(exec_time)
            self.resources[site_name].release(req)
            req = None
            record.exec_finished = self.sim.now
            tracer.end(phase)
            tracer.end(tspan)
        except Interrupt as intr:
            cause = str(intr.cause or "")
            status = ("cancelled" if cause == "hedge-cancel"
                      else "interrupted")
            tracer.end(phase, status=status)
            tracer.end(tspan, status=status, cause=intr.cause)
            self._on_attempt_end(task, site_name, record, attempt_id,
                                 req=req, req_held=False,
                                 exec_started=exec_started, cause=cause,
                                 is_hedge=is_hedge)
            return
        except _TransientFault as fault:
            self.stats.transient_faults += 1
            tracer.end(phase, status="failed")
            tracer.end(tspan, status="failed", cause=fault.cause)
            self._on_attempt_end(task, site_name, record, attempt_id,
                                 req=req, req_held=True,
                                 exec_started=True, cause=fault.cause,
                                 is_hedge=is_hedge)
            return
        except Exception as exc:  # noqa: BLE001 - recorded, or retried
            tracer.end(phase, status="failed")
            tracer.end(tspan, status="failed", error=repr(exc))
            if isinstance(exc, DataFabricError):
                # corrupted staging is transient: retried like a fault
                self._on_attempt_end(task, site_name, record, attempt_id,
                                     req=req, req_held=False,
                                     exec_started=exec_started,
                                     cause=f"staging@{site_name}: {exc}",
                                     is_hedge=is_hedge)
                return
            self._end_attempt(task.name, attempt_id)
            self.failed_tasks[task.name] = exc
            return
        self._complete_attempt(task, site_name, record, attempt_id,
                               is_hedge=is_hedge)

    def _complete_attempt(self, task: TaskSpec, site_name: str,
                          record: TaskRecord, attempt_id: int,
                          is_hedge: bool) -> None:
        """An attempt ran to completion; first finisher wins the task."""
        name = task.name
        self._end_attempt(name, attempt_id)
        if name in self.records:
            # a sibling won at this same instant; count this as waste
            self._burn(site_name, record.exec_time)
            self.stats.hedges_lost += 1
            self._settle(name)
            return
        # cancel racing duplicates (hedge losers)
        for _aid, (proc, loser_site) in list(
                self._active_at.get(name, {}).items()):
            proc.interrupt(cause="hedge-cancel")
        if is_hedge:
            self.stats.hedges_won += 1
            self.tracer.instant("hedge_won", "resilience", task=name,
                                site=site_name)
        if self.breakers is not None:
            breaker = self.breakers.get(site_name)
            if breaker.state(self.sim.now) is not BreakerState.CLOSED:
                self.tracer.instant("breaker_close", "resilience",
                                    site=site_name)
            breaker.record_success(self.sim.now)

        site = self.ctx.site(site_name)
        record.energy_j = site.power.marginal_energy(record.exec_time)
        record.compute_usd = site.pricing.compute_cost(record.exec_time)
        record.attempts = self.attempts[name]
        self.energy_j += record.energy_j
        self.compute_usd += record.compute_usd
        self.site_busy[site_name] += record.exec_time
        self.records[name] = record
        self._settle(name)
        if self._m_decisions is not None:
            self._m_stage.observe(record.stage_time)
            self._m_queue_wait.observe(record.queue_time)
            self._m_exec.observe(record.exec_time)
        for out in task.outputs:
            self.catalog.add_replica(out.name, site_name, time=self.sim.now)
        self.strategy.observe(record, self.ctx)

        dag = self._dag_of[name]
        job_idx = self._job_of_dag[dag]
        self._job_pending[job_idx] -= 1
        if self._job_pending[job_idx] == 0:
            self._job_finish[job_idx] = self.sim.now

        for dependent in dag.dependents(name):
            self.remaining[dependent] -= 1
            if self.remaining[dependent] == 0:
                self.ready.append(dag.task(dependent))
                self.tracer.instant("ready", "scheduler", task=dependent)
                self._schedule_dispatch()

    def _on_attempt_end(self, task: TaskSpec, site_name: str,
                        record: TaskRecord, attempt_id: int, *,
                        req, req_held: bool, exec_started: bool,
                        cause: str, is_hedge: bool) -> None:
        """An attempt ended without producing the task's result: an
        outage or timeout interrupt, a chaos transient fault, a hedge
        cancellation, or a staging failure. Clean up,
        account the waste exactly, then decide whether to retry."""
        name = task.name
        self._end_attempt(name, attempt_id)
        if req is not None:
            if req_held:
                self.resources[site_name].release(req)
            else:
                self.resources[site_name].cancel(req)
        wasted = self.sim.now - record.exec_started if exec_started else 0.0
        if exec_started:
            self._burn(site_name, wasted)

        if cause == "hedge-cancel":
            self.stats.hedges_lost += 1
            self.tracer.instant("hedge_lost", "resilience", task=name,
                                site=site_name, wasted_s=wasted)
            self._settle(name)
            return
        if cause.startswith("outage@"):
            self.interruptions += 1
        self.tracer.instant(
            "interrupted", "scheduler", task=name, site=site_name,
            cause=cause, wasted_s=wasted,
        )
        failures = self.failures_of[name] = self.failures_of.get(name, 0) + 1
        self.attempt_log.setdefault(name, []).append(
            f"attempt {failures} at {site_name}: {cause}"
        )
        if self.breakers is not None and not cause.startswith("staging@"):
            breaker = self.breakers.get(site_name)
            trips_before = breaker.trips
            breaker.record_failure(self.sim.now)
            if breaker.trips > trips_before:
                self.tracer.instant("breaker_open", "resilience",
                                    site=site_name, failures=failures)

        if self._active_at.get(name):
            # a hedge duplicate is still racing; it owns the outcome now
            return
        if name in self.records:
            # a loser that outlived its winner (its watchdog fired at the
            # win's instant, ahead of the cancel): the task's last attempt
            self._settle(name)
            return
        self._retry_or_fail(task, cause)

    def _settle(self, name: str) -> None:
        """Drop a finished task's attempt state once no attempt of it is
        still running (a racing hedge loser still reads the counts)."""
        if name in self.records and name not in self._active_at:
            self.attempts.pop(name, None)
            self.failures_of.pop(name, None)
            self.attempt_log.pop(name, None)
            self._hedges_of.pop(name, None)

    def _burn(self, site_name: str, seconds: float) -> None:
        """Account execution that produced no result (the slot burned)."""
        self.wasted_exec_s += seconds
        self.site_busy[site_name] += seconds
        self.energy_j += self.ctx.site(site_name).power.marginal_energy(
            seconds)

    def _retry_or_fail(self, task: TaskSpec, cause: str) -> None:
        name = task.name
        failures = self.failures_of[name]
        retry = self.resilience.retry
        if not retry.allows_retry(failures):
            history = "; ".join(self.attempt_log[name])
            self.failed_tasks[name] = SchedulingError(
                f"task {name!r} interrupted {failures} times "
                f"(cause: {cause}); retries exhausted [{history}]"
            )
            return
        delay = retry.delay_s(failures, key=name)
        if self.budget is not None and not self.budget.acquire():
            delay = max(delay, self.budget.cooldown_s)
            self.tracer.instant("retry_budget_exhausted", "resilience",
                                task=name, cooldown_s=delay)
        self.stats.retries += 1
        self.stats.backoff_delay_s += delay
        if delay > 0:
            self.tracer.instant("retry_backoff", "resilience", task=name,
                                delay_s=delay, failures=failures)
            self.sim.schedule(delay, self._requeue, task, cause)
        else:
            self._requeue(task, cause)

    def _requeue(self, task: TaskSpec, cause: str) -> None:
        if task.name in self.records:
            return
        self.ready.append(task)
        self.tracer.instant("ready", "scheduler", task=task.name,
                            requeued_after=cause)
        self._schedule_dispatch()
