"""The perf guard's gating rules (``benchmarks/check_regression.py``)."""

import json

import pytest

from tests.bench import load_script

check_regression = load_script("check_regression")


def fairness_row(name, speedup, vectorized_s, spent_s=None):
    row = {"name": name, "speedup": speedup, "vectorized_s": vectorized_s,
           "rate_solves_per_s": 1.0 / vectorized_s}
    if spent_s is not None:
        row["vectorized_spent_s"] = spent_s
    return row


def kernel_row(name, speedup, optimized_s):
    return {"name": name, "speedup": speedup, "optimized_s": optimized_s,
            "optimized_events_per_s": 1000.0}


def guard(tmp_path, committed, fresh):
    paths = []
    for tag, rows in (("committed", committed), ("fresh", fresh)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({
            "benchmarks": [r for r in rows if "optimized_s" in r],
            "fairness": [r for r in rows if "vectorized_s" in r],
        }))
        paths.append(str(path))
    return check_regression.main(paths)


class TestUntimeableRule:
    def test_sub_ms_solve_with_enough_spent_is_gated(self, tmp_path, capsys):
        committed = [fairness_row("mm_1k", 8.0, 0.0015, 0.05)]
        fresh = [fairness_row("mm_1k", 4.0, 0.0008, 0.05)]
        assert guard(tmp_path, committed, fresh) == 1
        assert "REGRESSED" in capsys.readouterr().out
        fresh = [fairness_row("mm_1k", 7.0, 0.0008, 0.05)]
        assert guard(tmp_path, committed, fresh) == 0
        assert " OK" in capsys.readouterr().out

    def test_sub_ms_spent_is_untimeable(self, tmp_path, capsys):
        committed = [fairness_row("mm_1k", 8.0, 0.0015)]
        fresh = [fairness_row("mm_1k", 1.0, 0.0002, 0.0006)]
        assert guard(tmp_path, committed, fresh) == 0
        assert "untimeable" in capsys.readouterr().out

    @pytest.mark.parametrize("fresh", [
        fairness_row("mm_1k", 1.0, 0.0008),     # report without spent
        kernel_row("mm_1k", 1.0, 0.0008),       # kernel rows: best time
    ])
    def test_rows_without_spent_keep_the_best_time_rule(
            self, tmp_path, capsys, fresh):
        committed = [fairness_row("mm_1k", 8.0, 0.0015)]
        assert guard(tmp_path, committed, [fresh]) == 0
        assert "untimeable" in capsys.readouterr().out


class TestOtherRules:
    def test_near_1x_rows_are_not_gated(self, tmp_path, capsys):
        committed = [kernel_row("slices", 1.2, 0.04)]
        fresh = [kernel_row("slices", 0.5, 0.04)]
        assert guard(tmp_path, committed, fresh) == 0
        assert "nothing to guard" in capsys.readouterr().out

    def test_missing_row_fails(self, tmp_path):
        committed = [kernel_row("churn", 2.2, 0.2)]
        assert guard(tmp_path, committed, []) == 1

    def test_threshold_is_the_floor(self, tmp_path):
        committed = [kernel_row("churn", 2.0, 0.2)]
        assert guard(tmp_path, committed, [kernel_row("churn", 1.4, 0.2)]) == 0
        assert guard(tmp_path, committed, [kernel_row("churn", 1.38, 0.2)]) == 1
