import copyreg
import dataclasses
import pickle

import pytest

from repro.datafabric import Dataset
from repro.errors import WorkflowError
from repro.workflow import Memoizer, SerialExecutor, ThreadExecutor, TaskSpec
from repro.workflow.checkpoint import load_checkpoint, save_checkpoint
from repro.workflow.memoization import make_key


class TestSerialExecutor:
    def test_runs_inline(self):
        ex = SerialExecutor()
        fut = ex.submit(lambda x: x * 2, 21)
        assert fut.done()
        assert fut.result() == 42
        assert ex.tasks_run == 1

    def test_exception_captured(self):
        ex = SerialExecutor()
        fut = ex.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            fut.result()

    def test_submit_after_shutdown_rejected(self):
        ex = SerialExecutor()
        ex.shutdown()
        with pytest.raises(WorkflowError):
            ex.submit(lambda: None)


class TestThreadExecutor:
    def test_parallel_results(self):
        ex = ThreadExecutor(max_workers=4)
        futures = [ex.submit(lambda i=i: i * i) for i in range(10)]
        assert [f.result() for f in futures] == [i * i for i in range(10)]
        ex.shutdown()
        assert ex.tasks_submitted == 10
        assert ex.tasks_completed == 10

    def test_bad_worker_count(self):
        with pytest.raises(WorkflowError):
            ThreadExecutor(max_workers=0)

    def test_submit_after_shutdown_rejected(self):
        ex = ThreadExecutor(max_workers=1)
        ex.shutdown()
        with pytest.raises(WorkflowError):
            ex.submit(lambda: None)


class TestMakeKey:
    def test_stable(self):
        assert make_key("f", (1, 2), {"a": 3}) == make_key("f", (1, 2), {"a": 3})

    def test_kwarg_order_insensitive(self):
        assert make_key("f", (), {"a": 1, "b": 2}) == make_key(
            "f", (), {"b": 2, "a": 1}
        )

    def test_args_sensitive(self):
        assert make_key("f", (1,), {}) != make_key("f", (2,), {})

    def test_function_sensitive(self):
        assert make_key("f", (1,), {}) != make_key("g", (1,), {})

    def test_unpicklable_yields_none(self):
        assert make_key("f", (lambda: None,), {}) is None


class TestMemoizer:
    def test_miss_then_hit(self):
        memo = Memoizer()
        key = make_key("f", (1,), {})
        found, _ = memo.lookup(key)
        assert not found
        memo.store(key, 99)
        found, value = memo.lookup(key)
        assert found and value == 99
        assert memo.hits == 1 and memo.lookups == 2
        assert memo.hit_rate == 0.5

    def test_none_key_never_stored(self):
        memo = Memoizer()
        memo.store(None, 1)
        assert memo.size == 0
        assert memo.lookup(None) == (False, None)

    def test_export_load_roundtrip(self):
        memo = Memoizer()
        memo.store("k", [1, 2, 3])
        other = Memoizer()
        other.load(memo.export())
        assert other.lookup("k") == (True, [1, 2, 3])

    def test_clear(self):
        memo = Memoizer()
        memo.store("k", 1)
        memo.clear()
        assert memo.size == 0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "sub" / "memo.ckpt")
        save_checkpoint(path, {"a": 1, "b": [2, 3]})
        assert load_checkpoint(path) == {"a": 1, "b": [2, 3]}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "none.ckpt")) == {}

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(WorkflowError, match="corrupt"):
            load_checkpoint(str(path))

    def test_bad_structure_rejected(self, tmp_path):
        path = tmp_path / "bad2.ckpt"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(WorkflowError):
            load_checkpoint(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v99.ckpt"
        path.write_bytes(pickle.dumps({"version": 99, "results": {}}))
        with pytest.raises(WorkflowError, match="version"):
            load_checkpoint(str(path))

    def test_version_1_file_rejected(self, tmp_path):
        """A version 1 file holds TaskSpecs pickled from their instance
        ``__dict__``; loaded into the slotted class, every field would
        hold its own name. The version check refuses the file."""
        path = tmp_path / "v1.ckpt"
        task = TaskSpec("t", 2.0, inputs=("x",), outputs=(Dataset("y", 8),))
        path.write_bytes(pickle.dumps(
            {"version": 1, "results": {"k": _DictPickled(task)}}))
        assert pickle.loads(path.read_bytes())["results"]["k"].name == "name"
        with pytest.raises(WorkflowError,
                           match="has version 1, expected 2"):
            load_checkpoint(str(path))

    def test_roundtrip_of_tasks_and_datasets(self, tmp_path):
        path = tmp_path / "memo.ckpt"
        table = {
            "task": TaskSpec("t", 2.0, kind="gpu", inputs=("x",),
                             outputs=(Dataset("y", 8, metadata={"m": 1}),),
                             deadline_s=5.0),
            "dataset": Dataset("z", 3.5, kind="model"),
        }
        save_checkpoint(str(path), table)
        assert pickle.loads(path.read_bytes())["version"] == 2
        loaded = load_checkpoint(str(path))
        assert loaded == table
        assert repr(loaded) == repr(table)
        assert loaded["task"].output_names == ("y",)
        assert loaded["task"].outputs[0].metadata == {"m": 1}

    def test_atomic_overwrite(self, tmp_path):
        path = str(tmp_path / "memo.ckpt")
        save_checkpoint(path, {"a": 1})
        save_checkpoint(path, {"a": 2})
        assert load_checkpoint(path) == {"a": 2}


class _DictPickled:
    """Pickles a dataclass instance the way version 1 files hold them:
    rebuilt from its class and an instance ``__dict__`` of its fields."""

    def __init__(self, obj):
        self.obj = obj

    def __reduce__(self):
        state = {f.name: getattr(self.obj, f.name)
                 for f in dataclasses.fields(self.obj)}
        return copyreg._reconstructor, (type(self.obj), object, None), state
