import os

import pytest

from repro.bench.harness import ExperimentResult, render, save_rendered


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


class TestSave:
    def test_writes_lowercase_id_file(self, tmp_path):
        path = save_rendered("E99: save test\n", "e99.txt", str(tmp_path))
        assert path == os.path.join(str(tmp_path), "e99.txt")
        assert open(path).read() == "E99: save test\n"

    def test_creates_directory(self, tmp_path):
        target = str(tmp_path / "deep" / "dir")
        save_rendered("x\n", "e1.txt", target)
        assert os.path.isdir(target)


class TestAtomicSave:
    """Regression: a crashed (parallel) worker must never leave a
    truncated ``results/eN.txt`` — same temp-file + fsync + os.replace
    discipline as workflow checkpoints."""

    def _save(self, marker: str, directory) -> str:
        return save_rendered(f"marker {marker}\n", "e7.txt", str(directory))

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
        path = self._save("x", tmp_path)
        assert "marker" in open(path).read()

    def test_failed_replace_keeps_old_table_and_no_litter(
            self, tmp_path, monkeypatch):
        path = self._save("old", tmp_path)
        old_text = open(path).read()

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            self._save("new", tmp_path)
        monkeypatch.undo()
        assert open(path).read() == old_text
        litter = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert litter == []
