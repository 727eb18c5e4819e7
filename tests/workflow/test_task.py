import pytest

from repro.datafabric import Dataset
from repro.errors import WorkflowError
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
