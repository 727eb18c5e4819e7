"""Whole-table differential: wave dispatch vs the frozen scalar oracle.

The decision-stream differentials compare single runs; this renders
two complete experiments (E2: every strategy over three topologies and
three workloads; E13: resilience policies under chaos) once on each
engine and demands byte-identical tables. E2 must also still match its
committed ``results/e2.txt``.
"""

from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.bench import EXPERIMENTS
from repro.bench.harness import render
from tests.oracles import scalar_engine

RESULTS = Path(__file__).resolve().parents[2] / "results"


def _render(exp_id, engine):
    with engine():
        return render(EXPERIMENTS[exp_id](quick=True, seed=0)) + "\n"


@pytest.mark.parametrize("exp_id", ["E2", "E13"])
def test_scalar_and_wave_tables_byte_identical(exp_id):
    assert _render(exp_id, scalar_engine) == _render(exp_id, nullcontext)


def test_e2_matches_committed_table():
    committed = (RESULTS / "e2.txt").read_text(encoding="utf-8")
    assert _render("E2", nullcontext) == committed
