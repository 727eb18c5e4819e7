import json

import pytest

from repro.datafabric import Dataset
from repro.errors import WorkflowError
from repro.workflow import (
    TaskSpec,
    WorkflowDAG,
    dag_from_dict,
    dag_to_dict,
    load_workload,
    save_workload,
)
from repro.workloads import beamline_pipeline, montage_like_dag, stencil_dag


def rich_dag():
    dag = WorkflowDAG("rich")
    dag.add_task(TaskSpec("a", 2.0, kind="ingest",
                          outputs=(Dataset("x", 100.0, kind="frames"),)))
    dag.add_task(TaskSpec("b", 4.0, inputs=("x",), deadline_s=10.0,
                          pinned_site="edge"))
    dag.add_task(TaskSpec("c", 1.0, after=("a",)))
    return dag


class TestRoundtrip:
    def test_rich_dag_roundtrips(self):
        dag = rich_dag()
        back = dag_from_dict(dag_to_dict(dag))
        assert back.name == dag.name
        assert back.task_names == dag.task_names
        assert back.edge_count == dag.edge_count
        b = back.task("b")
        assert b.deadline_s == 10.0
        assert b.pinned_site == "edge"
        assert back.task("a").outputs[0].kind == "frames"
        assert back.dependencies("c") == ["a"]

    @pytest.mark.parametrize("builder", [
        lambda: beamline_pipeline(4)[0],
        lambda: montage_like_dag(4)[0],
        lambda: stencil_dag(3, 2)[0],
    ])
    def test_workload_dags_roundtrip(self, builder):
        dag = builder()
        back = dag_from_dict(dag_to_dict(dag))
        assert back.task_names == dag.task_names
        assert back.critical_path() == dag.critical_path()

    def test_json_safe(self):
        json.dumps(dag_to_dict(rich_dag()))

    def test_analyses_preserved(self):
        dag = rich_dag()
        back = dag_from_dict(dag_to_dict(dag))
        assert back.bottom_levels() == dag.bottom_levels()
        assert back.external_inputs() == dag.external_inputs()


class TestValidation:
    def test_missing_tasks_key(self):
        with pytest.raises(WorkflowError):
            dag_from_dict({"name": "x"})

    def test_bad_version(self):
        data = dag_to_dict(rich_dag())
        data["version"] = 42
        with pytest.raises(WorkflowError, match="version"):
            dag_from_dict(data)

    def test_missing_task_field(self):
        data = dag_to_dict(rich_dag())
        del data["tasks"][0]["work"]
        with pytest.raises(WorkflowError):
            dag_from_dict(data)

    def test_tasks_not_a_list(self):
        with pytest.raises(WorkflowError, match="must be a list"):
            dag_from_dict({"tasks": "x"})

    def test_task_not_an_object(self):
        with pytest.raises(WorkflowError, match="task entry"):
            dag_from_dict({"tasks": ["x"]})

    def test_non_numeric_work(self):
        with pytest.raises(WorkflowError, match="task 'a'"):
            dag_from_dict({"tasks": [{"name": "a", "work": "x"}]})

    def test_malformed_output(self):
        with pytest.raises(WorkflowError, match="task 'a'"):
            dag_from_dict({"tasks": [{"name": "a", "work": 1.0,
                                      "outputs": ["x"]}]})


class TestFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkflowError):
            load_workload(str(tmp_path / "nope.json"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[[")
        with pytest.raises(WorkflowError, match="corrupt"):
            load_workload(str(path))

    def test_loaded_dag_schedulable(self, tmp_path):
        from repro.continuum import edge_cloud_pair
        from repro.core import ContinuumScheduler, GreedyEFTStrategy

        path = str(tmp_path / "wf" / "workload.json")
        dag, externals = beamline_pipeline(2)
        save_workload(path, dag, externals)
        loaded, loaded_externals = load_workload(path)
        topo = edge_cloud_pair()
        result = ContinuumScheduler(topo).run(
            loaded, GreedyEFTStrategy(),
            external_inputs=[(d, "edge") for d in loaded_externals],
        )
        assert result.task_count == len(dag)


class TestWorkloadFiles:
    def test_roundtrip_with_externals(self, tmp_path):
        dag, externals = beamline_pipeline(3)
        path = str(tmp_path / "wl.json")
        save_workload(path, dag, externals)
        back_dag, back_ext = load_workload(path)
        assert back_dag.task_names == dag.task_names
        assert {d.name for d in back_ext} == {d.name for d in externals}
        assert {d.size_bytes for d in back_ext} == \
            {d.size_bytes for d in externals}

    def test_missing_external_definitions_rejected(self, tmp_path):
        dag, externals = beamline_pipeline(2)
        path = str(tmp_path / "wl.json")
        save_workload(path, dag, externals=None)  # drops the externals
        with pytest.raises(WorkflowError, match="external"):
            load_workload(path)
