import os

import pytest

from repro.bench.harness import ExperimentResult, render
from repro.bench.runner import run_suite


class TestExperimentResult:
    def test_row_appends_and_returns(self):
        result = ExperimentResult("EX", "title")
        row = result.row(a=1, b=2)
        assert row == {"a": 1, "b": 2}
        assert result.rows == [{"a": 1, "b": 2}]

    def test_notes(self):
        result = ExperimentResult("EX", "title")
        result.note("observation")
        assert result.notes == ["observation"]


class TestRender:
    def test_contains_id_title_rows_notes(self):
        result = ExperimentResult("EX", "My Experiment")
        result.row(metric=42.0)
        result.note("shape holds")
        text = render(result)
        assert "EX: My Experiment" in text
        assert "metric" in text and "42" in text
        assert "- shape holds" in text


def save_e1(directory) -> str:
    """Run E1 quick through the runner, saving its rendered table."""
    (entry,) = run_suite(["E1"], quick=True, save_dir=str(directory))
    return entry.rendered


class TestSave:
    def test_writes_lowercase_id_file(self, tmp_path):
        rendered = save_e1(tmp_path)
        path = os.path.join(str(tmp_path), "e1.txt")
        assert open(path).read() == rendered + "\n"

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        save_e1(target)
        assert os.path.isfile(target / "e1.txt")


class TestAtomicSave:
    """Regression: a crashed (parallel) worker must never leave a
    truncated ``results/eN.txt``: tables go through ``write_atomic``
    (temp file + fsync + os.replace), like every file the library
    writes."""

    def test_save_fsyncs_before_replace(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        def spy_replace(src, dst):
            assert synced, "os.replace ran before any fsync"
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        save_e1(tmp_path)
        assert "E1" in open(tmp_path / "e1.txt").read()

    def test_failed_replace_keeps_old_table_and_no_litter(
            self, tmp_path, monkeypatch):
        (tmp_path / "e1.txt").write_text("old table\n")

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_e1(tmp_path)
        monkeypatch.undo()
        assert (tmp_path / "e1.txt").read_text() == "old table\n"
        assert os.listdir(tmp_path) == ["e1.txt"]
