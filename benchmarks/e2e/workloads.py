"""The end-to-end workloads: inputs generated from a seed, run through
the public API, with digests and invariants over the simulated outputs.

Each workload's ``prepare(seed, smoke)`` builds everything a pass needs
(topologies, DAGs, fault plans) and returns a list of :class:`Op`. A
pass runs every op in order, closed loop: the next op starts only after
the previous one returned. Simulated arrivals inside a stream op are an
open-loop Poisson process fixed by the seed.

Simulated statistics are correctness checks, not performance metrics:
any change that claims to speed the simulator up must leave every
digest bit-identical.

``smoke=True`` shrinks every workload so the smoke tests can build and
run all of them in seconds; only full-size digests are recorded.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench import EXPERIMENTS, render
from repro.continuum import Tier, geo_random_continuum, zoo_topology
from repro.controlplane import ControlPlaneConfig
from repro.core import ContinuumScheduler
from repro.core.scheduler import StreamJob
from repro.core.strategies import (
    DataGravityStrategy,
    GreedyEFTStrategy,
    RoundRobinStrategy,
)
from repro.datafabric import Dataset
from repro.faults import ChaosCampaign
from repro.observe import MetricsRegistry, Tracer
from repro.resilience import ResiliencePolicy
from repro.workflow import TaskSpec, WorkflowDAG
from repro.workloads import layered_random_dag, map_reduce_dag

# Topologies are the deployment and stay fixed; the seed drives the
# traffic. Drawing a topology per seed made single shuffle passes range
# over 2.1-3.3 s across five seeds, against 1.9-2.0 s with this one.
TOPO_SEED = 0
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@dataclass
class Op:
    """One timed call into the program: an experiment, a ``run`` or a
    ``run_stream``. ``call`` returns the simulated result; ``digest``
    and ``check`` read it after the timed region."""

    name: str
    call: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], str | None]
    tracer: Tracer | None = None
    registry: MetricsRegistry | None = None


def _rng(seed: int, workload: str) -> np.random.Generator:
    """The benchmark's own input stream, independent of the program's
    RNG plumbing so a change there cannot change the inputs."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


def _poisson_arrivals(rng: np.random.Generator, rate: float, n: int):
    return np.cumsum(rng.exponential(1.0 / rate, size=n)).tolist()


def _peripheral(topo) -> list[str]:
    names = [s.name for s in topo.sites if s.tier.is_peripheral]
    return names or topo.site_names


# ---------------------------------------------------------------------------
# digests and invariants of scheduler results
# ---------------------------------------------------------------------------

def _makespan(result) -> float:
    return (result.makespan if hasattr(result, "makespan")
            else result.last_finish)


def schedule_digest(result) -> str:
    """sha256 over the sorted (task, site, exec_finished) records, the
    bytes moved and the makespan, floats by their exact repr."""
    h = hashlib.sha256()
    for name in sorted(result.records):
        rec = result.records[name]
        h.update(f"{name}\0{rec.site}\0{rec.exec_finished!r}\n".encode())
    h.update(f"bytes={result.bytes_moved!r}\n".encode())
    h.update(f"makespan={_makespan(result)!r}\n".encode())
    return h.hexdigest()


def _schedule_check(tasks: int):
    def check(result) -> str | None:
        if len(result.records) != tasks:
            return f"{len(result.records)} task records, expected {tasks}"
        span = _makespan(result)
        if not (math.isfinite(span) and span > 0):
            return f"makespan {span!r} is not finite and positive"
        if not (math.isfinite(result.bytes_moved) and result.bytes_moved >= 0):
            return f"bytes_moved {result.bytes_moved!r} is invalid"
        lost = result.resilience.lost_tasks if result.resilience else 0
        if lost:
            return f"{lost} tasks lost"
        return None
    return check


def _scheduler_op(name: str, tasks: int, call, **extra) -> Op:
    return Op(name=name, call=call, digest=schedule_digest,
              check=_schedule_check(tasks), **extra)


# ---------------------------------------------------------------------------
# suite: the committed experiment tables
# ---------------------------------------------------------------------------

# The mode each table in results/ was committed in. The timed suite runs
# every experiment quick, as ``python -m repro.bench`` does; ``run.py
# tables`` runs them in these modes. E9 is left out: it runs real
# threads and time.sleep, so it would measure the OS, not the simulator.
COMMITTED_MODES = {
    "E1": "quick", "E2": "quick", "E3": "full", "E4": "quick",
    "E5": "quick", "E6": "quick", "E7": "quick", "E8": "quick",
    "E10": "quick", "E11": "quick", "E12": "quick", "E13": "full",
    "E14": "full", "E16": "full",
}
SMOKE_SUITE = ("E1", "E6", "E11")

# E3's host-time columns and its growth note are timing, not simulation.
_MASKED_COLUMNS = {"E3": ("wall_s", "tasks_per_s")}
_MASKED_NOTES = re.compile(r"^  - wall time grew ")


def mask_table(exp_id: str, text: str) -> str:
    """Canonical form of a rendered table with host-time content masked
    (cells stripped of padding, so masked widths cannot leak)."""
    masked = _MASKED_COLUMNS.get(exp_id, ())
    out, drop = [], []
    for line in text.rstrip("\n").split("\n"):
        if _MASKED_NOTES.match(line):
            continue
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if not drop and masked:
                drop = [i for i, c in enumerate(cells) if c in masked]
            cells = ["#" if i in drop else c for i, c in enumerate(cells)]
            line = "|".join(cells)
        out.append(line)
    return "\n".join(out) + "\n"


# The suite's inputs are the experiments' own, drawn from the CLI's
# default seed, at which the tables were committed. Other seeds change
# E16's partition schedules enough to move its host time 0.7-1.6 s
# (seeds 200-209), which would make the suite measure the seed.
SUITE_SEED = 0


def _experiment_op(exp_id: str, quick: bool, committed: bool) -> Op:
    """One experiment at SUITE_SEED; with ``committed`` its table must
    reproduce the one in results/ (host-time content masked)."""
    def digest(result) -> str:
        return hashlib.sha256(
            mask_table(exp_id, render(result)).encode()).hexdigest()

    def check(result) -> str | None:
        if not committed:
            return None
        path = os.path.join(REPO_ROOT, "results", f"{exp_id.lower()}.txt")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if mask_table(exp_id, text) != mask_table(exp_id, render(result)):
            return f"table differs from results/{exp_id.lower()}.txt"
        return None

    return Op(name=exp_id,
              call=lambda: EXPERIMENTS[exp_id](quick=quick, seed=SUITE_SEED),
              digest=digest, check=check)


def prepare_suite(seed: int, smoke: bool) -> list[Op]:
    """``python -m repro.bench``: every experiment quick, whatever
    ``seed`` is; the tables committed quick must reproduce."""
    ids = SMOKE_SUITE if smoke else tuple(COMMITTED_MODES)
    return [_experiment_op(e, True, not smoke
                           and COMMITTED_MODES[e] == "quick")
            for e in ids]


def prepare_tables() -> list[Op]:
    """Every experiment in the mode its table was committed in; each
    table must reproduce."""
    return [_experiment_op(e, mode == "quick", True)
            for e, mode in COMMITTED_MODES.items()]


# ---------------------------------------------------------------------------
# stream: a many-task campaign through the kernel and placement
# ---------------------------------------------------------------------------

STREAM = dict(jobs=800, width=24, refs=64, ref_bytes=50e6, zipf=1.3,
              rate=2.0, input_bytes=5e6, branch_work=4.0, sites=24)
STREAM_SMOKE = dict(STREAM, jobs=20, width=6, refs=8)


def prepare_stream(seed: int, smoke: bool) -> list[Op]:
    p = STREAM_SMOKE if smoke else STREAM
    rng = _rng(seed, "stream")
    topo = geo_random_continuum(p["sites"], seed=TOPO_SEED)
    archives = [s.name for s in topo.sites if not s.tier.is_peripheral]
    archives = archives or topo.site_names
    periphery = _peripheral(topo)
    refs = [Dataset(f"ref{k}", p["ref_bytes"]) for k in range(p["refs"])]
    ref_site = {r.name: archives[k % len(archives)]
                for k, r in enumerate(refs)}
    popularity = np.arange(1, p["refs"] + 1, dtype=float) ** -p["zipf"]
    popularity /= popularity.sum()
    picks = rng.choice(p["refs"], size=p["jobs"], p=popularity)
    births = rng.integers(len(periphery), size=p["jobs"])
    arrivals = _poisson_arrivals(rng, p["rate"], p["jobs"])
    jobs = []
    for j in range(p["jobs"]):
        ref = refs[int(picks[j])]
        raw = Dataset(f"j{j}-in", p["input_bytes"])
        dag = WorkflowDAG(f"j{j}")
        parts = []
        for b in range(p["width"]):
            out = Dataset(f"j{j}-p{b}", 1e6)
            parts.append(out.name)
            dag.add_task(TaskSpec(f"j{j}-b{b}", work=p["branch_work"],
                                  inputs=(raw.name, ref.name),
                                  outputs=(out,)))
        dag.add_task(TaskSpec(f"j{j}-join", work=1.0, inputs=tuple(parts)))
        # every job ships the reference it reads; the catalog keeps one
        # definition and the replica at its archive
        jobs.append(StreamJob(arrivals[j], dag, (
            (raw, periphery[int(births[j])]),
            (ref, ref_site[ref.name]),
        )))
    tasks = p["jobs"] * (p["width"] + 1)
    sched = ContinuumScheduler(topo, seed=seed)
    return [_scheduler_op(
        "run_stream", tasks,
        lambda: sched.run_stream(jobs, GreedyEFTStrategy()))]


# ---------------------------------------------------------------------------
# shuffle: hundreds of concurrent flows through the max-min solver
# ---------------------------------------------------------------------------

SHUFFLE = dict(jobs=20, maps=32, reduces=16, input_bytes=200e6,
               intermediate_bytes=4e9, rate=0.05, sites=24,
               bandwidth=1.25e8)
SHUFFLE_SMOKE = dict(SHUFFLE, jobs=3, maps=6, reduces=3)


def prepare_shuffle(seed: int, smoke: bool) -> list[Op]:
    p = SHUFFLE_SMOKE if smoke else SHUFFLE
    rng = _rng(seed, "shuffle")
    topo = geo_random_continuum(p["sites"], bandwidth_Bps=p["bandwidth"],
                                seed=TOPO_SEED)
    periphery = _peripheral(topo)
    arrivals = _poisson_arrivals(rng, p["rate"], p["jobs"])
    jobs = []
    for j in range(p["jobs"]):
        dag, externals = map_reduce_dag(
            p["maps"], p["reduces"], input_bytes=p["input_bytes"],
            intermediate_bytes=p["intermediate_bytes"],
            name=f"mr{j}")
        first = int(rng.integers(len(periphery)))
        placed = tuple((d, periphery[(first + k) % len(periphery)])
                       for k, d in enumerate(externals))
        jobs.append(StreamJob(arrivals[j], dag, placed))
    tasks = p["jobs"] * (p["maps"] + p["reduces"])
    sched = ContinuumScheduler(topo, seed=seed)
    return [_scheduler_op(
        "run_stream", tasks,
        lambda: sched.run_stream(jobs, DataGravityStrategy()))]


# ---------------------------------------------------------------------------
# chaos: resilience, fault injection and observability doing real work
# ---------------------------------------------------------------------------

CHAOS = dict(runs=32, tasks=150, levels=6)
CHAOS_SMOKE = dict(CHAOS, runs=2, tasks=60)


def prepare_chaos(seed: int, smoke: bool) -> list[Op]:
    p = CHAOS_SMOKE if smoke else CHAOS
    rng = _rng(seed, "chaos")
    ops = []
    for i in range(p["runs"]):
        s = _sub_seed(rng)
        topo = zoo_topology("multi-region", seed=TOPO_SEED)
        dag, externals = layered_random_dag(p["tasks"], n_levels=p["levels"],
                                            seed=s, name=f"chaos{i}")
        periphery = _peripheral(topo)
        placed = [(d, periphery[k % len(periphery)])
                  for k, d in enumerate(externals)]
        plan = ChaosCampaign.preset("high", seed=s).build(topo)
        sched = ContinuumScheduler(
            topo, seed=s, transfer_failure_prob=plan.transfer_failure_prob,
            transfer_max_attempts=10)
        tracer, registry = Tracer(), MetricsRegistry()

        def call(sched=sched, dag=dag, placed=placed, plan=plan, s=s,
                 tracer=tracer, registry=registry):
            return sched.run(
                dag, GreedyEFTStrategy(), external_inputs=placed,
                failures=plan.outages, chaos=plan.task_chaos,
                resilience=ResiliencePolicy.full(max_attempts=100, seed=s),
                task_retries=100, tracer=tracer, metrics=registry)

        ops.append(_scheduler_op(f"run{i}", p["tasks"], call,
                                 tracer=tracer, registry=registry))
    return ops


# ---------------------------------------------------------------------------
# metadata: the replicated control plane over a long simulated horizon
# ---------------------------------------------------------------------------

METADATA = dict(jobs=400, width=4, refs=4, ref_bytes=8e7, rate=0.5,
                lag=0.5, control_sites=5)
METADATA_SMOKE = dict(METADATA, jobs=20)


def prepare_metadata(seed: int, smoke: bool) -> list[Op]:
    p = METADATA_SMOKE if smoke else METADATA
    rng = _rng(seed, "metadata")
    s = _sub_seed(rng)
    topo = zoo_topology("multi-region", seed=TOPO_SEED)
    edges = [site.name for site in topo.sites_by_tier(Tier.EDGE)]
    refs = [Dataset(f"ref{k}", p["ref_bytes"]) for k in range(p["refs"])]
    home = {r.name: edges[k % len(edges)] for k, r in enumerate(refs)}
    arrivals = _poisson_arrivals(rng, p["rate"], p["jobs"])
    picks = rng.integers(p["refs"], size=(p["jobs"], p["width"]))
    jobs = []
    for j in range(p["jobs"]):
        dag = WorkflowDAG(f"w{j}")
        outs, used = [], {}
        for t in range(p["width"]):
            ref = refs[int(picks[j, t])]
            used[ref.name] = ref
            out = Dataset(f"w{j}-o{t}", 1e6)
            outs.append(out.name)
            dag.add_task(TaskSpec(f"w{j}-t{t}", work=2.0, inputs=(ref.name,),
                                  outputs=(out,)))
        dag.add_task(TaskSpec(f"w{j}-gate", work=1.0, inputs=tuple(outs)))
        placed = tuple((ref, home[ref.name]) for ref in used.values())
        jobs.append(StreamJob(arrivals[j], dag, placed))
    horizon = 2.0 * arrivals[-1] + 1000.0
    partitions = ChaosCampaign(
        seed=s, horizon_s=horizon, partition_rate_per_s=1 / 600.0,
        partition_mean_duration_s=30.0,
    ).build(topo, n_control_sites=p["control_sites"]).partitions
    config = ControlPlaneConfig.for_lag(
        p["lag"], n_sites=p["control_sites"], read_mode="quorum")
    tasks = p["jobs"] * (p["width"] + 1)
    sched = ContinuumScheduler(topo, seed=s)
    return [_scheduler_op(
        "run_stream", tasks,
        lambda: sched.run_stream(jobs, RoundRobinStrategy(), control=config,
                                 partitions=partitions))]


WORKLOADS: dict[str, Callable[[int, bool], list[Op]]] = {
    "suite": prepare_suite,
    "stream": prepare_stream,
    "shuffle": prepare_shuffle,
    "chaos": prepare_chaos,
    "metadata": prepare_metadata,
}
