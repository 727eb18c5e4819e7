"""The parallel sharded runner."""

import os

import pytest

from repro.bench import EXPERIMENTS, render
from repro.bench.runner import run_suite
from repro.errors import ContinuumError


class TestRunSuiteSequential:
    def test_matches_direct_run(self, tmp_path):
        entries = run_suite(["E1"], quick=True, seed=0, jobs=1)
        direct = EXPERIMENTS["E1"](quick=True, seed=0)
        assert len(entries) == 1
        assert entries[0].rendered == render(direct)

    def test_unknown_experiment_raises(self):
        with pytest.raises(ContinuumError):
            run_suite(["E42"], quick=True)

    def test_bad_jobs_raises(self):
        with pytest.raises(ContinuumError):
            run_suite(["E1"], quick=True, jobs=0)

    def test_save_dir_writes_tables(self, tmp_path):
        run_suite(["E1"], quick=True, save_dir=str(tmp_path))
        assert (tmp_path / "e1.txt").read_text().startswith("E1:")


class TestShardProtocol:
    def test_e13_shards_merge_equals_run_experiment(self):
        from repro.bench import e13_resilience_policies as e13

        shards = e13.list_shards(quick=True, seed=0)
        assert len(shards) > 1
        partials = [e13.run_shard(s, quick=True, seed=0) for s in shards]
        merged = e13.merge_shards(partials, quick=True, seed=0)
        direct = e13.run_experiment(quick=True, seed=0)
        assert merged.rows == direct.rows
        assert merged.notes == direct.notes

    def test_e13_merge_is_order_insensitive(self):
        from repro.bench import e13_resilience_policies as e13

        shards = e13.list_shards(quick=True, seed=0)
        partials = [e13.run_shard(s, quick=True, seed=0) for s in shards]
        shuffled = list(reversed(partials))
        assert e13.merge_shards(shuffled, quick=True, seed=0).rows == \
            e13.merge_shards(partials, quick=True, seed=0).rows

    def test_e14_shards_merge_equals_run_experiment(self):
        from repro.bench import e14_topology_zoo as e14

        shards = e14.list_shards(quick=True, seed=0)
        assert len(shards) > 1
        partials = [e14.run_shard(s, quick=True, seed=0) for s in shards]
        merged = e14.merge_shards(partials, quick=True, seed=0)
        direct = e14.run_experiment(quick=True, seed=0)
        assert merged.rows == direct.rows
        assert merged.notes == direct.notes

    def test_e14_merge_is_order_insensitive(self):
        from repro.bench import e14_topology_zoo as e14

        shards = e14.list_shards(quick=True, seed=0)
        partials = [e14.run_shard(s, quick=True, seed=0) for s in shards]
        shuffled = list(reversed(partials))
        assert e14.merge_shards(shuffled, quick=True, seed=0).rows == \
            e14.merge_shards(partials, quick=True, seed=0).rows


class TestRunSuiteParallel:
    def test_parallel_bit_identical_to_sequential(self, tmp_path):
        seq = run_suite(["E1", "E13"], quick=True, jobs=1)
        par = run_suite(["E1", "E13"], quick=True, jobs=2)
        assert [e.experiment_id for e in par] == ["E1", "E13"]
        for s, p in zip(seq, par):
            assert p.rendered == s.rendered
        # E13 went through the shard fan-out
        assert par[1].shards > 1

    def test_parallel_save_matches_sequential_save(self, tmp_path):
        seq_dir, par_dir = str(tmp_path / "seq"), str(tmp_path / "par")
        run_suite(["E13"], quick=True, jobs=1, save_dir=seq_dir)
        run_suite(["E13"], quick=True, jobs=2, save_dir=par_dir)
        seq_text = open(os.path.join(seq_dir, "e13.txt")).read()
        par_text = open(os.path.join(par_dir, "e13.txt")).read()
        assert par_text == seq_text


class TestSuiteMetrics:
    def test_sequential_collects_snapshots(self):
        from repro.bench.runner import suite_metrics_doc
        from repro.observe.metrics import snapshot_to_json, validate_suite

        entries = run_suite(["E6"], quick=True, collect_metrics=True)
        assert entries[0].metrics is not None
        doc = validate_suite(suite_metrics_doc(entries, quick=True, seed=0))
        assert "datafabric_cache_hits_total" in (
            doc["experiments"]["E6"]["metrics"])
        # canonical serialization is stable across reruns
        again = run_suite(["E6"], quick=True, collect_metrics=True)
        assert snapshot_to_json(entries[0].metrics) == snapshot_to_json(
            again[0].metrics)

    def test_parallel_metrics_bit_identical_to_sequential(self):
        from repro.observe.metrics import snapshot_to_json

        seq = run_suite(["E6", "E13"], quick=True, jobs=1,
                        collect_metrics=True)
        par = run_suite(["E6", "E13"], quick=True, jobs=2,
                        collect_metrics=True)
        for s, p in zip(seq, par):
            assert p.rendered == s.rendered        # tables untouched
            assert snapshot_to_json(p.metrics) == snapshot_to_json(s.metrics)

    def test_tables_unchanged_by_collection(self):
        bare = run_suite(["E6"], quick=True)
        metered = run_suite(["E6"], quick=True, collect_metrics=True)
        assert metered[0].rendered == bare[0].rendered

    def test_suite_doc_requires_metrics(self):
        from repro.bench.runner import suite_metrics_doc

        entries = run_suite(["E1"], quick=True)
        with pytest.raises(ContinuumError, match="no metrics collected"):
            suite_metrics_doc(entries, quick=True, seed=0)
