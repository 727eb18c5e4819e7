import copy
import dataclasses
import pickle

import pytest

from repro.datafabric import Dataset
from repro.errors import WorkflowError
from repro.core.placement import TaskRecord
from repro.workflow import TaskSpec, TaskState


class TestTaskSpec:
    def test_minimal(self):
        t = TaskSpec("t", work=1.0)
        assert t.inputs == ()
        assert t.outputs == ()
        assert t.deadline_s is None

    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowError):
            TaskSpec("", 1.0)

    def test_negative_work_rejected(self):
        with pytest.raises(Exception):
            TaskSpec("t", -1.0)

    def test_zero_work_allowed(self):
        assert TaskSpec("barrier", 0.0).work == 0.0

    def test_inputs_normalized_to_tuple(self):
        t = TaskSpec("t", 1.0, inputs=["a", "b"])
        assert t.inputs == ("a", "b")

    def test_output_names_and_bytes(self):
        t = TaskSpec("t", 1.0, outputs=(Dataset("x", 10), Dataset("y", 32)))
        assert t.output_names == ("x", "y")
        assert t.output_bytes == 42

    def test_duplicate_outputs_rejected(self):
        with pytest.raises(WorkflowError):
            TaskSpec("t", 1.0, outputs=(Dataset("x", 1), Dataset("x", 2)))

    def test_duplicate_inputs_rejected(self):
        """A repeated input would be staged and costed twice while the
        network moves it once."""
        with pytest.raises(WorkflowError, match="input 'd' twice"):
            TaskSpec("t", 1.0, inputs=("a", "d", "d"))

    def test_bad_deadline(self):
        with pytest.raises(WorkflowError):
            TaskSpec("t", 1.0, deadline_s=0.0)

    def test_states_enum(self):
        assert TaskState.PENDING.value == "pending"
        assert len(TaskState) == 6


class TestSlottedRoundTrip:
    """Memoization and checkpointing pickle task arguments: the slotted
    classes and the cached ``output_names`` must survive every copy."""

    task = TaskSpec("t", 2.0, kind="gpu", inputs=("a", "b"),
                    outputs=(Dataset("o1", 5, metadata={"k": 1}),
                             Dataset("o2", 7)),
                    after=("s",), deadline_s=9.0, pinned_site="edge")
    record = TaskRecord("t", "edge", ready_at=1.0, exec_finished=3.0,
                        deadline_s=4.0, attempts=2)

    @pytest.mark.parametrize("clone", [
        lambda x: pickle.loads(pickle.dumps(x)),
        copy.deepcopy,
        copy.copy,
        dataclasses.replace,
    ], ids=["pickle", "deepcopy", "copy", "replace"])
    def test_clones_are_equal(self, clone):
        task = clone(self.task)
        assert task == self.task and hash(task) == hash(self.task)
        assert repr(task) == repr(self.task)
        assert task.output_names == ("o1", "o2")
        assert task.outputs[0].metadata == {"k": 1}
        assert clone(self.record) == self.record

    def test_replace_recomputes_output_names(self):
        task = dataclasses.replace(self.task, outputs=(Dataset("x", 1),))
        assert task.output_names == ("x",)
        assert task != self.task

    def test_output_names_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            TaskSpec("t", 1.0, _output_names=("x",))
        assert "_output_names" not in repr(self.task)
