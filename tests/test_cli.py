import json

import pytest

from repro.cli import main


class TestTopologyCommand:
    def test_describe_preset(self, capsys):
        assert main(["topology", "science-grid"]) == 0
        out = capsys.readouterr().out
        assert "science-grid" in out
        assert "instrument" in out and "hpc-center" in out

    def test_save_and_reload(self, tmp_path, capsys):
        path = str(tmp_path / "grid.json")
        assert main(["topology", "science-grid", "--save", path]) == 0
        capsys.readouterr()
        assert main(["topology", path]) == 0
        out = capsys.readouterr().out
        assert "5 sites" in out

    def test_unknown_file_errors(self, tmp_path, capsys):
        assert main(["topology", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_is_one_line_error(self, tmp_path, capsys):
        path = str(tmp_path / "grid.json")
        assert main(["topology", "science-grid", "--save", path]) == 0
        capsys.readouterr()
        with open(path) as handle:
            doc = json.load(handle)
        doc["sites"][0]["power"] = {"busy_wats": 1.0}
        with open(path, "w") as handle:
            json.dump(doc, handle)
        assert main(["topology", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "busy_wats" in err
        assert err.count("\n") == 1

    def test_malformed_workload_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text('{"tasks": [{"name": "a", "work": "x"}]}')
        assert main(["schedule", "--dag", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestDagCommand:
    def test_dot_output(self, capsys):
        assert main(["dag", "beamline"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "beamline-aggregate" in out

    def test_mermaid_output(self, capsys):
        assert main(["dag", "climate", "--format", "mermaid"]) == 0
        assert capsys.readouterr().out.startswith("graph LR")

    def test_dataset_mode(self, capsys):
        assert main(["dag", "montage", "--datasets"]) == 0
        assert "ellipse" in capsys.readouterr().out


class TestWorkloadFiles:
    def test_save_then_schedule_from_file(self, tmp_path, capsys):
        path = str(tmp_path / "wl.json")
        assert main(["dag", "stencil", "--save", path]) == 0
        capsys.readouterr()
        assert main(["schedule", "--dag", path,
                     "--topology", "smart-city"]) == 0
        out = capsys.readouterr().out
        assert "'stencil'" in out and "makespan" in out

    def test_schedule_missing_dag_file(self, tmp_path, capsys):
        assert main(["schedule", "--dag", str(tmp_path / "x.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestScheduleCommand:
    def test_default_run(self, capsys):
        assert main(["schedule"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "Gantt" in out
        assert "Utilization" in out

    def test_strategy_and_workload_selection(self, capsys):
        assert main(["schedule", "--workload", "climate",
                     "--strategy", "greedy-eft",
                     "--topology", "hierarchical"]) == 0
        out = capsys.readouterr().out
        assert "'climate'" in out and "'greedy-eft'" in out

    def test_unknown_strategy_errors(self, capsys):
        assert main(["schedule", "--strategy", "warp-drive"]) == 1
        err = capsys.readouterr().err
        assert "unknown strategy" in err

    def test_adaptive_strategy_available(self, capsys):
        assert main(["schedule", "--strategy", "adaptive-ucb"]) == 0


class TestTraceCommand:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        import json

        from repro.observe import validate_chrome_trace

        out = str(tmp_path / "trace.json")
        assert main(["trace", "--workload", "beamline", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "span summary" in printed
        assert "critical path" in printed
        assert "chrome trace written" in printed
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert validate_chrome_trace(doc) > 0

    @pytest.mark.parametrize("metrics, digest", [
        (False, "5ad908aa818bbf492c67ab13c25758a6"
                "a073a58ac9c4f85fa4f1c28c2ef8fe73"),
        (True, "211b0d94d96fef49cc1c9669a2c176e6"
               "562f87f66525d4400c7e561eb5fb17f7"),
    ])
    def test_beamline_trace_is_pinned(self, tmp_path, monkeypatch, capsys,
                                      metrics, digest):
        """The exported JSON, spans and (with ``--metrics``) recorder
        counter events alike, is byte-for-byte the recorded one: span
        storage and sampling are refactored against this digest. The
        plain case is ``repro trace --workload beamline`` as typed, its
        output in the default ``trace.json``."""
        import hashlib

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "trace.json"
        argv = ["trace", "--workload", "beamline"]
        if metrics:
            argv += ["--metrics", str(tmp_path / "metrics.json")]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_trace_without_export(self, capsys):
        assert main(["trace", "--workload", "stencil", "--out", ""]) == 0
        printed = capsys.readouterr().out
        assert "spans" in printed
        assert "chrome trace written" not in printed


class TestChaosCommand:
    def test_default_run_reports_recovery_actions(self, capsys):
        assert main(["chaos"]) == 0
        printed = capsys.readouterr().out
        assert "chaos campaign 'medium'" in printed
        assert "recovery actions:" in printed
        assert "resilience stats:" in printed
        assert "lost=0" in printed

    def test_intensity_and_policy_selection(self, capsys):
        assert main(["chaos", "--intensity", "high",
                     "--policy", "naive", "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        assert "chaos campaign 'high' (seed 3)" in printed
        assert "'naive-retry'" in printed

    def test_chaos_trace_export(self, tmp_path, capsys):
        import json

        from repro.observe import validate_chrome_trace

        out = str(tmp_path / "chaos.json")
        assert main(["chaos", "--workload", "stencil", "--out", out]) == 0
        assert "chrome trace written" in capsys.readouterr().out
        with open(out, encoding="utf-8") as handle:
            assert validate_chrome_trace(json.load(handle)) > 0

    def test_same_seed_same_makespan(self, capsys):
        assert main(["chaos", "--intensity", "high", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "--intensity", "high", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first


class TestChaosCommandErrors:
    """Bad campaign/policy names must die with a one-line error, never
    a traceback."""

    def _err(self, capsys, args):
        assert main(args) == 1
        captured = capsys.readouterr()
        lines = [l for l in captured.err.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in captured.err
        return lines[0]

    def test_unknown_intensity_one_line_error(self, capsys):
        line = self._err(capsys, ["chaos", "--intensity", "apocalyptic"])
        assert "apocalyptic" in line
        assert "high" in line and "low" in line and "medium" in line

    def test_unknown_policy_one_line_error(self, capsys):
        line = self._err(capsys, ["chaos", "--policy", "prayer"])
        assert "prayer" in line

    def test_validation_happens_before_any_simulation(self, capsys):
        # an invalid name must not print partial campaign output first
        assert main(["chaos", "--intensity", "nope"]) == 1
        assert "chaos campaign" not in capsys.readouterr().out


class TestMetricsCommand:
    def test_run_prints_prometheus(self, capsys):
        assert main(["metrics", "E6"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE datafabric_cache_hits_total counter" in out
        assert 'experiment="E6"' in out

    def test_out_writes_loadable_suite_snapshot(self, tmp_path, capsys):
        from repro.observe import load_snapshot

        out = str(tmp_path / "suite.json")
        assert main(["metrics", "E6", "--out", out]) == 0
        capsys.readouterr()
        doc = load_snapshot(out)
        assert doc["schema"] == "repro-metrics-suite/1"
        assert "E6" in doc["experiments"]
        # --load renders the file back without running anything
        assert main(["metrics", "--load", out]) == 0
        captured = capsys.readouterr()
        assert 'experiment="E6"' in captured.out
        assert "valid metrics snapshot" in captured.err


class TestMetricsCommandErrors:
    """Missing/corrupt/unknown-schema inputs must die with a one-line
    error before any simulation starts."""

    def _err(self, capsys, args):
        assert main(args) == 1
        captured = capsys.readouterr()
        lines = [l for l in captured.err.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""        # nothing ran
        return lines[0]

    def test_no_experiments(self, capsys):
        line = self._err(capsys, ["metrics"])
        assert "--load" in line

    def test_unknown_experiment(self, capsys):
        line = self._err(capsys, ["metrics", "E99"])
        assert "'E99'" in line and "E13" in line

    def test_load_missing_file(self, tmp_path, capsys):
        line = self._err(capsys, ["metrics", "--load",
                                  str(tmp_path / "nope.json")])
        assert "not found" in line

    def test_load_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        line = self._err(capsys, ["metrics", "--load", str(path)])
        assert "not valid JSON" in line

    def test_load_unknown_schema(self, tmp_path, capsys):
        path = tmp_path / "weird.json"
        path.write_text('{"schema": "weird/9", "metrics": {}}')
        line = self._err(capsys, ["metrics", "--load", str(path)])
        assert "unknown metrics snapshot schema" in line

    def test_load_combined_with_experiments(self, tmp_path, capsys):
        line = self._err(capsys, ["metrics", "E6", "--load",
                                  str(tmp_path / "x.json")])
        assert "--load" in line


class TestTraceMetricsFlag:
    def test_trace_metrics_snapshot_and_counters(self, tmp_path, capsys):
        import json

        from repro.observe import load_snapshot, validate_chrome_trace

        out = str(tmp_path / "trace.json")
        mpath = str(tmp_path / "metrics.json")
        assert main(["trace", "--workload", "beamline", "--out", out,
                     "--metrics", mpath]) == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        doc = load_snapshot(mpath)
        assert "sim_events_dispatched_total" in doc["metrics"]
        assert doc["timeseries"]                # recorder series kept
        with open(out, encoding="utf-8") as handle:
            trace = json.load(handle)
        validate_chrome_trace(trace)
        assert any(e["ph"] == "C" for e in trace["traceEvents"])

    def test_chaos_metrics_snapshot(self, tmp_path, capsys):
        from repro.observe import load_snapshot

        mpath = str(tmp_path / "metrics.json")
        assert main(["chaos", "--workload", "stencil",
                     "--metrics", mpath]) == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        doc = load_snapshot(mpath)
        assert "resilience_retries_total" in doc["metrics"]

    def test_chaos_output_unchanged_by_metrics(self, tmp_path, capsys):
        assert main(["chaos", "--seed", "4"]) == 0
        bare = capsys.readouterr().out
        mpath = str(tmp_path / "m.json")
        assert main(["chaos", "--seed", "4", "--metrics", mpath]) == 0
        metered = capsys.readouterr().out
        assert metered.startswith(bare)   # only the snapshot line appended


class TestBenchProfileFlag:
    def test_profile_writes_loadable_pstats(self, tmp_path, capsys):
        import pstats

        path = tmp_path / "bench.pstats"
        assert main(["bench", "E2", "--quick",
                     "--profile", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"profile written to {path}" in captured.err
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_profile_rejects_parallel_jobs(self, tmp_path, capsys):
        """Worker processes escape the profiler, so --jobs > 1 must die
        with a one-line error before anything runs."""
        path = tmp_path / "bench.pstats"
        assert main(["bench", "E2", "--quick", "--jobs", "2",
                     "--profile", str(path)]) == 2
        captured = capsys.readouterr()
        lines = [l for l in captured.err.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert captured.out == ""
        assert not path.exists()
