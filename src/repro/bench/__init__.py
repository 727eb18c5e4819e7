"""Experiment harness: the evaluation suite (E1..E14, E16) of DESIGN.md.

Each experiment module exposes ``run_experiment(quick=False, seed=0)``
returning an :class:`ExperimentResult` whose rows are the table/series
the "paper" would print; ``python -m repro.bench E1`` runs one
standalone. The shape claims each experiment must reproduce are checked
by ``PYTHONPATH=src python -m pytest tests/bench/test_experiments.py``.
"""

from repro.bench.harness import ExperimentResult, render
from repro.bench import (
    e01_gilder,
    e02_strategies,
    e03_scalability,
    e04_faas,
    e05_slo,
    e06_caching,
    e07_pareto,
    e08_adaptive,
    e09_engine,
    e10_specialization,
    e11_resilience,
    e12_offered_load,
    e13_resilience_policies,
    e14_topology_zoo,
    e16_control_plane,
)

EXPERIMENTS = {
    "E1": e01_gilder.run_experiment,
    "E2": e02_strategies.run_experiment,
    "E3": e03_scalability.run_experiment,
    "E4": e04_faas.run_experiment,
    "E5": e05_slo.run_experiment,
    "E6": e06_caching.run_experiment,
    "E7": e07_pareto.run_experiment,
    "E8": e08_adaptive.run_experiment,
    "E9": e09_engine.run_experiment,
    "E10": e10_specialization.run_experiment,
    "E11": e11_resilience.run_experiment,
    "E12": e12_offered_load.run_experiment,
    "E13": e13_resilience_policies.run_experiment,
    "E14": e14_topology_zoo.run_experiment,
    "E16": e16_control_plane.run_experiment,
}

__all__ = ["ExperimentResult", "render", "EXPERIMENTS"]
