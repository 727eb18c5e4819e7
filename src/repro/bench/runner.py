"""Parallel sharded experiment runner.

The E1–E14 suite is embarrassingly parallel twice over: experiments are
independent of each other, and shootout-style experiments (E13, E14)
decompose further into independent scheduler runs. This module
fans both levels across a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges partial results in deterministic experiment/shard order, so
the rendered tables are byte-identical to a sequential run.

Experiment modules may opt into sub-experiment sharding by exposing::

    list_shards(quick, seed)  -> list of picklable shard keys
    run_shard(shard, quick, seed) -> picklable partial
    merge_shards(partials, quick, seed) -> ExperimentResult

with ``run_experiment`` delegating to the same three functions — the
sequential path and the parallel path then share every line of
experiment code, which is what makes byte-identity a structural
property rather than a testing hope.

Every run recomputes its experiments; the runner keeps no state on disk
between runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.bench.harness import ExperimentResult, render
from repro.errors import ContinuumError
from repro.utils.atomic import write_atomic


# ---------------------------------------------------------------------------
# Worker entry points (module-level: must be picklable by the pool)
# ---------------------------------------------------------------------------

def _worker_run_experiment(exp_id: str, quick: bool, seed: int,
                           collect_metrics: bool = False):
    from repro.bench import EXPERIMENTS
    from repro.observe.metrics import MetricsRegistry, use_registry

    if collect_metrics:
        registry = MetricsRegistry()
        with use_registry(registry):
            result = EXPERIMENTS[exp_id](quick=quick, seed=seed)
        return result, registry.dump_state()
    return EXPERIMENTS[exp_id](quick=quick, seed=seed), None


def _worker_run_shard(exp_id: str, shard, quick: bool, seed: int,
                      collect_metrics: bool = False):
    from repro.bench import EXPERIMENTS
    from repro.observe.metrics import MetricsRegistry, use_registry
    import importlib

    module = importlib.import_module(EXPERIMENTS[exp_id].__module__)
    if collect_metrics:
        registry = MetricsRegistry()
        with use_registry(registry):
            partial = module.run_shard(shard, quick=quick, seed=seed)
        return partial, registry.dump_state()
    return module.run_shard(shard, quick=quick, seed=seed), None


def _shard_api(exp_id: str):
    """The (list_shards, run_shard, merge_shards) triple, or None."""
    from repro.bench import EXPERIMENTS
    import importlib

    module = importlib.import_module(EXPERIMENTS[exp_id].__module__)
    fns = tuple(getattr(module, name, None)
                for name in ("list_shards", "run_shard", "merge_shards"))
    return fns if all(fns) else None


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

@dataclass
class SuiteEntry:
    """One experiment's outcome within a suite run."""

    experiment_id: str
    result: ExperimentResult
    rendered: str
    shards: int = 1
    metrics: dict | None = None   # canonical metrics snapshot, if collected


def run_suite(
    experiment_ids: list[str],
    *,
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    save_dir: str | None = None,
    collect_metrics: bool = False,
) -> list[SuiteEntry]:
    """Run experiments, possibly in parallel, returning entries in the
    requested order with byte-identical-to-sequential renders.

    ``jobs=1`` runs everything in-process (no pool); higher values fan
    experiments *and* their shards across worker processes.

    ``collect_metrics`` runs every experiment under an enabled metrics
    registry and attaches the canonical per-experiment snapshot to each
    entry. Shard registries are merged in deterministic shard order with
    exact (error-free) accumulation, so the snapshot is byte-identical
    across ``--jobs`` values.
    """
    from repro.bench import EXPERIMENTS

    ids = [e.upper() for e in experiment_ids]
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            raise ContinuumError(
                f"unknown experiment {exp_id!r}; known: {list(EXPERIMENTS)}"
            )
    if jobs < 1:
        raise ContinuumError(f"--jobs must be >= 1, got {jobs}")

    unique = list(dict.fromkeys(ids))
    if jobs == 1:
        computed = _run_sequential(unique, quick, seed, collect_metrics)
    else:
        computed = _run_parallel(unique, quick, seed, jobs, collect_metrics)
    entries = {entry.experiment_id: entry for entry in computed}

    ordered = [entries[exp_id] for exp_id in ids]
    if save_dir:
        for entry in ordered:
            write_atomic(os.path.join(save_dir,
                                      entry.experiment_id.lower() + ".txt"),
                         entry.rendered + "\n")
    return ordered


def _snapshot_from_states(states: list[dict]) -> dict:
    """Merge worker registry states in deterministic (shard) order and
    return the canonical snapshot."""
    from repro.observe.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for state in states:
        merged.merge_state(state)
    return merged.snapshot()


def _run_sequential(ids: list[str], quick: bool, seed: int,
                    collect_metrics: bool = False) -> list[SuiteEntry]:
    out = []
    for exp_id in ids:
        result, state = _worker_run_experiment(
            exp_id, quick, seed, collect_metrics)
        shard_api = _shard_api(exp_id)
        n_shards = len(shard_api[0](quick=quick, seed=seed)) if shard_api else 1
        snapshot = _snapshot_from_states([state]) if state is not None \
            else None
        out.append(SuiteEntry(exp_id, result, render(result),
                              shards=n_shards, metrics=snapshot))
    return out


def _run_parallel(ids: list[str], quick: bool, seed: int, jobs: int,
                  collect_metrics: bool = False) -> list[SuiteEntry]:
    """Fan every experiment (and each shardable experiment's
    shards) across one shared pool; merge in deterministic order."""
    plans = []      # (exp_id, shard_keys | None)
    for exp_id in ids:
        shard_api = _shard_api(exp_id)
        shards = shard_api[0](quick=quick, seed=seed) if shard_api else None
        plans.append((exp_id, shards))

    out = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {}
        for exp_id, shards in plans:
            if shards is None:
                futures[exp_id] = pool.submit(
                    _worker_run_experiment, exp_id, quick, seed,
                    collect_metrics)
            else:
                futures[exp_id] = [
                    pool.submit(_worker_run_shard, exp_id, shard, quick,
                                seed, collect_metrics)
                    for shard in shards
                ]
        # Merge in the deterministic id order, not completion order.
        for exp_id, shards in plans:
            if shards is None:
                result, state = futures[exp_id].result()
                snapshot = _snapshot_from_states([state]) \
                    if state is not None else None
                out.append(SuiteEntry(exp_id, result, render(result),
                                      shards=1, metrics=snapshot))
            else:
                done = [f.result() for f in futures[exp_id]]
                partials = [partial for partial, _state in done]
                merge = _shard_api(exp_id)[2]
                result = merge(partials, quick=quick, seed=seed)
                snapshot = None
                if collect_metrics:
                    snapshot = _snapshot_from_states(
                        [state for _p, state in done])
                out.append(SuiteEntry(exp_id, result, render(result),
                                      shards=len(partials),
                                      metrics=snapshot))
    return out


def suite_metrics_doc(entries: list[SuiteEntry], *, quick: bool,
                      seed: int) -> dict:
    """Assemble per-experiment snapshots into one suite metrics file
    (schema ``repro-metrics-suite/1``); raises if any entry lacks one."""
    from repro.observe.metrics import SUITE_SCHEMA

    experiments = {}
    for entry in entries:
        if entry.metrics is None:
            raise ContinuumError(
                f"no metrics collected for {entry.experiment_id} "
                f"(was the suite run with collect_metrics?)")
        experiments[entry.experiment_id] = entry.metrics
    return {
        "schema": SUITE_SCHEMA,
        "config": {"quick": bool(quick), "seed": int(seed)},
        "experiments": experiments,
    }
