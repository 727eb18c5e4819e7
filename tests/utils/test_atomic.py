"""The one atomic file writer and the library writes that go through it."""

import os

import pytest

from repro.continuum import save_topology, science_grid
from repro.utils.atomic import atomic_open, write_atomic
from repro.workflow import save_workload
from repro.workloads import beamline_pipeline


def save_grid(path):
    save_topology(science_grid(), path)


def save_beamline(path):
    dag, externals = beamline_pipeline(2)
    save_workload(path, dag, externals)


# the writers the bench tables' tests (tests/bench/test_harness.py) and
# the checkpoint tests do not already cover
WRITERS = {"topology": save_grid, "workload": save_beamline}


class TestWriteAtomic:
    def test_text_and_bytes(self, tmp_path):
        path = str(tmp_path / "out.txt")
        write_atomic(path, "café\n")
        assert open(path, encoding="utf-8").read() == "café\n"
        write_atomic(path, b"\x00\x01")
        assert open(path, "rb").read() == b"\x00\x01"

    def test_creates_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "dir" / "e1.txt")
        write_atomic(path, "x\n")
        assert open(path).read() == "x\n"

    def test_failed_write_keeps_old_file_and_no_litter(self, tmp_path):
        """A writer that raises midway (a pickle that cannot finish)
        leaves the old file and no temp file."""
        path = str(tmp_path / "out.bin")
        write_atomic(path, b"old")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write(b"partial")
                raise RuntimeError("unpicklable")
        assert open(path, "rb").read() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_fsyncs_before_replace(self, writer, tmp_path, monkeypatch):
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
        path = str(tmp_path / "out.json")
        WRITERS[writer](path)
        assert os.path.getsize(path) > 0

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_old_file_and_no_litter(
            self, writer, tmp_path, monkeypatch):
        path = str(tmp_path / "out.json")
        with open(path, "w") as handle:
            handle.write("old")

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            WRITERS[writer](path)
        monkeypatch.undo()
        assert open(path).read() == "old"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_existing_tmp_file_survives(self, writer, tmp_path):
        """A file named ``<path>.tmp`` is someone else's, not scratch."""
        path = str(tmp_path / "out.json")
        with open(path + ".tmp", "w") as handle:
            handle.write("keep me")
        WRITERS[writer](path)
        assert open(path + ".tmp").read() == "keep me"
