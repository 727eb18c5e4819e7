"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``topology`` — describe a preset or JSON topology, optionally save a
  preset to JSON for editing,
- ``dag`` — render a preset workload's DAG as DOT or Mermaid,
- ``schedule`` — run a preset workload on a topology under a strategy
  and print the summary, utilization, and Gantt chart,
- ``trace`` — run a workload with span tracing enabled, print the span
  summary and critical-path breakdown, and export a Chrome trace-event
  JSON (load it in ``chrome://tracing`` or https://ui.perfetto.dev),
- ``chaos`` — run a workload under a seeded chaos campaign (site
  outages, link brownouts, sick boxes, stragglers, corrupted
  transfers) with a chosen recovery policy, and report every recovery
  action the resilience layer took,
- ``metrics`` — run experiments with the unified metrics layer enabled
  and print the Prometheus text exposition (or write the canonical
  JSON snapshot with ``--out``); ``--load FILE`` validates and
  re-renders an existing snapshot without running anything,
- ``bench`` — the experiment suite runner (:mod:`repro.bench`):
  sequential or parallel-sharded (``--jobs N``).

``trace`` and ``chaos`` accept ``--metrics FILE`` to additionally
collect run metrics (zero-interference: the simulation output is
byte-identical with or without it) and interleave the sampled gauge
timeseries as counter events in the Chrome trace export.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.continuum import (
    TOPOLOGY_FAMILIES,
    hierarchical_continuum,
    load_topology,
    save_topology,
    science_grid,
    smart_city,
    zoo_topology,
)
from repro.core import ContinuumScheduler, slo_report
from repro.core.strategies import strategy_catalog
from repro.errors import ConfigurationError, ContinuumError
from repro.faults import CAMPAIGN_INTENSITIES, ChaosCampaign
from repro.resilience import ResiliencePolicy
from repro.observe import (
    MetricsRegistry,
    Tracer,
    critical_path,
    load_snapshot,
    snapshot_to_json,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
)
from repro.report import (
    ascii_gantt,
    critical_path_report,
    dag_to_dot,
    dag_to_mermaid,
    span_summary,
    utilization_table,
)
from repro.utils.atomic import write_atomic
from repro.workflow import load_workload, save_workload
from repro.workloads import (
    beamline_pipeline,
    climate_ensemble,
    layered_random_dag,
    montage_like_dag,
    stencil_dag,
)

PRESET_TOPOLOGIES = {
    "science-grid": science_grid,
    "smart-city": smart_city,
    "hierarchical": hierarchical_continuum,
}
# every zoo family, addressable as e.g. ``zoo:fat-tree`` (default params)
PRESET_TOPOLOGIES.update({
    f"zoo:{family}": (lambda family=family: zoo_topology(family))
    for family in sorted(TOPOLOGY_FAMILIES)
})

PRESET_WORKLOADS = {
    "beamline": lambda seed: beamline_pipeline(6),
    "climate": lambda seed: climate_ensemble(4),
    "montage": lambda seed: montage_like_dag(4),
    "layered": lambda seed: layered_random_dag(20, seed=seed),
    "stencil": lambda seed: stencil_dag(4, 4),
}


def _get_workload(args):
    """A preset name (``--workload``) or a saved file (``--dag``)."""
    if getattr(args, "dag", None):
        return load_workload(args.dag)
    return PRESET_WORKLOADS[args.workload](args.seed)


def _get_topology(spec: str):
    """Preset name or a path to a topology JSON file."""
    builder = PRESET_TOPOLOGIES.get(spec)
    if builder is not None:
        return builder()
    return load_topology(spec)


def _get_strategy(name: str):
    for strategy in strategy_catalog(include_adaptive=True):
        if strategy.name == name:
            return strategy
    known = [s.name for s in strategy_catalog(include_adaptive=True)]
    raise ContinuumError(f"unknown strategy {name!r}; known: {known}")


def _cmd_topology(args) -> int:
    topo = _get_topology(args.spec)
    print(topo.describe())
    for site in topo.sites:
        spec = ""
        if site.specializations:
            spec = " " + ",".join(
                f"{k}x{v:g}" for k, v in site.specializations.items()
            )
        print(f"  {site.name:<16} {site.tier.name.lower():<7} "
              f"speed={site.speed:g} slots={site.slots}{spec}")
    if args.save:
        save_topology(topo, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_dag(args) -> int:
    dag, externals = PRESET_WORKLOADS[args.workload](args.seed)
    if args.save:
        save_workload(args.save, dag, externals)
        print(f"saved workload to {args.save}")
        return 0
    if args.format == "dot":
        print(dag_to_dot(dag, include_datasets=args.datasets))
    else:
        print(dag_to_mermaid(dag))
    return 0


def _scenario(args):
    """Topology, workload (external inputs spread over the peripheral
    sites) and strategy, as the run commands take them."""
    topo = _get_topology(args.topology)
    dag, externals = _get_workload(args)
    peripheral = [s.name for s in topo.sites if s.tier.is_peripheral]
    sources = peripheral or topo.site_names
    placed = [(d, sources[i % len(sources)]) for i, d in enumerate(externals)]
    return topo, dag, placed, _get_strategy(args.strategy)


def _cmd_schedule(args) -> int:
    topo, dag, placed, strategy = _scenario(args)
    result = ContinuumScheduler(topo, seed=args.seed).run(
        dag, strategy, external_inputs=placed
    )
    row = result.summary_row()
    print(f"workflow {dag.name!r} on {topo.name!r} via {strategy.name!r}:")
    print(f"  makespan   {row['makespan_s']:.3f} s")
    print(f"  data moved {result.bytes_moved:.3g} B")
    print(f"  energy     {result.energy_j:.3g} J")
    print(f"  cost       ${result.total_usd:.4g}")
    slo = slo_report(result.records.values())
    if slo.total:
        print(f"  SLOs       {slo.met}/{slo.total}")
    print()
    print(utilization_table(result))
    print()
    print(ascii_gantt(result))
    return 0


def _run_metrics_registry(args) -> MetricsRegistry | None:
    """A live registry when ``--metrics`` was given, else ``None`` —
    passing ``None`` to the scheduler keeps the ambient (disabled)
    default, so plain runs pay nothing."""
    if not getattr(args, "metrics", None):
        return None
    return MetricsRegistry(keep_timeseries=True)


def _write_observations(args, tracer: Tracer,
                        metrics: MetricsRegistry | None) -> None:
    """The Chrome trace to ``--out``, the snapshot to ``--metrics``."""
    if args.out:
        doc = to_chrome_trace(
            tracer, recorder=metrics.timeseries if metrics else None
        )
        validate_chrome_trace(doc)
        write_atomic(args.out, json.dumps(doc))
        print()
        print(f"chrome trace written to {args.out} "
              f"({len(doc['traceEvents'])} events; open in chrome://tracing "
              f"or ui.perfetto.dev)")
    if metrics is not None:
        write_atomic(args.metrics, snapshot_to_json(metrics.snapshot()))
        print()
        print(f"metrics snapshot written to {args.metrics} "
              f"({len(metrics.families())} metric families)")


def _cmd_trace(args) -> int:
    topo, dag, placed, strategy = _scenario(args)
    tracer = Tracer()
    metrics = _run_metrics_registry(args)
    result = ContinuumScheduler(topo, seed=args.seed).run(
        dag, strategy, external_inputs=placed, tracer=tracer, metrics=metrics
    )
    print(f"workflow {dag.name!r} on {topo.name!r} via {strategy.name!r}: "
          f"makespan {result.makespan:.3f} s, "
          f"{len(tracer.finished())} spans")
    print()
    print(span_summary(tracer))
    print()
    cp = critical_path(result, dag)
    print(critical_path_report(cp))
    _write_observations(args, tracer, metrics)
    return 0


CHAOS_POLICIES = {
    "naive": lambda seed: ResiliencePolicy.naive(max_attempts=100),
    "backoff": lambda seed: ResiliencePolicy.backoff(max_attempts=100,
                                                     seed=seed),
    "full": lambda seed: ResiliencePolicy.full(max_attempts=100, seed=seed),
}

# tracer instants the resilience layer and fault injectors emit; the
# chaos command reports how often each recovery action fired
RECOVERY_ACTIONS = (
    "site_down", "site_up", "brownout_begin", "brownout_end",
    "chaos_straggler", "interrupted", "retry_backoff",
    "retry_budget_exhausted", "breaker_open", "breaker_probe",
    "breaker_close", "hedge_launch", "hedge_won", "hedge_lost",
    "attempt_timeout",
)


def _cmd_chaos(args) -> int:
    # validate the campaign/policy names first so a typo dies with a
    # one-line error before any simulation state is built
    campaign = ChaosCampaign.preset(args.intensity, seed=args.seed)
    policy_builder = CHAOS_POLICIES.get(args.policy)
    if policy_builder is None:
        raise ConfigurationError(
            f"unknown recovery policy {args.policy!r}; "
            f"known: {sorted(CHAOS_POLICIES)}"
        )
    topo, dag, placed, strategy = _scenario(args)
    plan = campaign.build(topo)
    policy = policy_builder(args.seed)
    tracer = Tracer()
    metrics = _run_metrics_registry(args)
    sched = ContinuumScheduler(
        topo, seed=args.seed,
        transfer_failure_prob=plan.transfer_failure_prob,
        transfer_max_attempts=10,
    )
    result = sched.run(
        dag, strategy, external_inputs=placed,
        failures=plan.outages, chaos=plan.task_chaos,
        resilience=policy, task_retries=100, tracer=tracer, metrics=metrics,
    )
    print(f"chaos campaign {args.intensity!r} (seed {args.seed}) on "
          f"{topo.name!r}: {plan.site_outage_count} outages, "
          f"{plan.brownout_count} brownouts, "
          f"{plan.degraded_window_count} degraded windows, "
          f"transfer corruption p={plan.transfer_failure_prob:g}")
    print(f"workflow {dag.name!r} under policy {policy.name!r}: "
          f"makespan {result.makespan:.3f} s, "
          f"{len(result.records)} tasks completed, "
          f"wasted exec {result.wasted_exec_s:.1f} s")
    print()
    print("recovery actions:")
    counts = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    for action in RECOVERY_ACTIONS:
        if counts.get(action):
            print(f"  {action:<24} {counts[action]}")
    stats = result.resilience
    print()
    print("resilience stats: " + ", ".join(
        f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in stats.as_row().items() if k != "policy"
    ))
    _write_observations(args, tracer, metrics)
    return 0


def _cmd_metrics(args) -> int:
    from repro.observe.metrics import SUITE_SCHEMA

    if args.load:
        if args.experiments:
            raise ConfigurationError(
                "--load renders an existing snapshot; experiment ids "
                "cannot be combined with it")
        doc = load_snapshot(args.load)   # one-line errors, nothing runs
        if doc.get("schema") == SUITE_SCHEMA:
            for exp_id in sorted(doc["experiments"]):
                print(to_prometheus(doc["experiments"][exp_id],
                                    extra_labels={"experiment": exp_id}),
                      end="")
        else:
            print(to_prometheus(doc), end="")
        print(f"# {args.load}: valid metrics snapshot", file=sys.stderr)
        return 0

    from repro.bench import EXPERIMENTS
    from repro.bench.runner import run_suite, suite_metrics_doc

    if not args.experiments:
        raise ConfigurationError(
            "name at least one experiment (e.g. 'repro metrics E6') "
            "or pass --load FILE")
    # validate every id before any simulation starts
    selected = []
    for exp_id in args.experiments:
        if exp_id.upper() not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {exp_id!r}; known: {list(EXPERIMENTS)}")
        selected.append(exp_id.upper())
    quick = not args.full
    entries = run_suite(selected, quick=quick, seed=args.seed,
                        jobs=args.jobs, collect_metrics=True)
    for entry in entries:
        print(to_prometheus(entry.metrics,
                            extra_labels={"experiment": entry.experiment_id}),
              end="")
    if args.out:
        doc = suite_metrics_doc(entries, quick=quick, seed=args.seed)
        write_atomic(args.out, snapshot_to_json(doc))
        print(f"# metrics snapshot written to {args.out}", file=sys.stderr)
    return 0


def _cmd_bench(bench_argv: list[str]) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(bench_argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="continuum computing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topology", help="describe a topology")
    p_topo.add_argument("spec",
                        help=f"preset ({', '.join(PRESET_TOPOLOGIES)}) or "
                             f"JSON path")
    p_topo.add_argument("--save", metavar="FILE", default=None)
    p_topo.set_defaults(func=_cmd_topology)

    p_dag = sub.add_parser("dag", help="render a preset workload DAG")
    p_dag.add_argument("workload", choices=sorted(PRESET_WORKLOADS))
    p_dag.add_argument("--format", choices=("dot", "mermaid"), default="dot")
    p_dag.add_argument("--datasets", action="store_true",
                       help="show dataflow through dataset nodes (dot only)")
    p_dag.add_argument("--seed", type=int, default=0)
    p_dag.add_argument("--save", metavar="FILE", default=None,
                       help="save the workload (DAG + externals) as JSON")
    p_dag.set_defaults(func=_cmd_dag)

    p_run = sub.add_parser("schedule", help="run a workload on a topology")
    p_run.add_argument("--topology", default="science-grid")
    p_run.add_argument("--workload", choices=sorted(PRESET_WORKLOADS),
                       default="beamline")
    p_run.add_argument("--dag", metavar="FILE", default=None,
                       help="saved workload JSON (overrides --workload)")
    p_run.add_argument("--strategy", default="heft")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=_cmd_schedule)

    p_trace = sub.add_parser(
        "trace", help="run a workload with span tracing; export Chrome trace"
    )
    p_trace.add_argument("--topology", default="science-grid")
    p_trace.add_argument("--workload", choices=sorted(PRESET_WORKLOADS),
                         default="beamline")
    p_trace.add_argument("--dag", metavar="FILE", default=None,
                         help="saved workload JSON (overrides --workload)")
    p_trace.add_argument("--strategy", default="heft")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", metavar="FILE", default="trace.json",
                         help="Chrome trace-event JSON path ('' to skip)")
    p_trace.add_argument("--metrics", metavar="FILE", default=None,
                         help="also collect run metrics: write the JSON "
                              "snapshot to FILE and interleave gauge "
                              "timeseries as counter events in --out")
    p_trace.set_defaults(func=_cmd_trace)

    p_chaos = sub.add_parser(
        "chaos", help="run a workload under a seeded chaos campaign"
    )
    p_chaos.add_argument("--topology", default="science-grid")
    p_chaos.add_argument("--workload", choices=sorted(PRESET_WORKLOADS),
                         default="layered")
    p_chaos.add_argument("--dag", metavar="FILE", default=None,
                         help="saved workload JSON (overrides --workload)")
    p_chaos.add_argument("--strategy", default="greedy-eft")
    # free-form on purpose: the library validates and rejects unknown
    # names with a one-line error naming the known values, which also
    # covers programmatic callers that bypass argparse
    p_chaos.add_argument("--intensity", default="medium", metavar="NAME",
                         help=f"campaign intensity preset "
                              f"(known: {', '.join(CAMPAIGN_INTENSITIES)})")
    p_chaos.add_argument("--policy", default="full", metavar="NAME",
                         help=f"recovery policy "
                              f"(known: {', '.join(sorted(CHAOS_POLICIES))})")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--out", metavar="FILE", default=None,
                         help="also export a Chrome trace-event JSON")
    p_chaos.add_argument("--metrics", metavar="FILE", default=None,
                         help="also collect run metrics: write the JSON "
                              "snapshot to FILE and interleave gauge "
                              "timeseries as counter events in --out")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_metrics = sub.add_parser(
        "metrics",
        help="run experiments with metrics enabled and print Prometheus "
             "text (or validate an existing snapshot with --load)",
    )
    p_metrics.add_argument("experiments", nargs="*",
                           help="experiment ids (e.g. E6 E13)")
    p_metrics.add_argument("--full", action="store_true",
                           help="full sweeps (default: quick)")
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes to shard across")
    p_metrics.add_argument("--out", metavar="FILE", default=None,
                           help="also write the canonical JSON suite "
                                "snapshot to FILE")
    p_metrics.add_argument("--load", metavar="FILE", default=None,
                           help="validate + render an existing metrics "
                                "snapshot instead of running anything")
    p_metrics.set_defaults(func=_cmd_metrics)

    sub.add_parser(
        "bench",
        help="run the experiment suite (supports --jobs N for parallel "
             "sharding); all following arguments are forwarded to "
             "repro.bench",
    )

    # `bench` forwards its entire tail (including option flags, which
    # argparse.REMAINDER mishandles) to the suite runner's own parser.
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0] == "bench":
        return _cmd_bench(raw[1:])

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContinuumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
