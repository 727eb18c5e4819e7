import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkflowError
from repro.workloads import (
    layered_random_dag,
    map_reduce_dag,
    montage_like_dag,
)


class TestMapReduce:
    def test_shape(self):
        dag, externals = map_reduce_dag(3, 2)
        assert len(dag) == 5
        assert len(externals) == 3
        # full shuffle: every reducer depends on every mapper
        for r in range(2):
            assert dag.dependencies(f"mapreduce-reduce{r}") == [
                "mapreduce-map0", "mapreduce-map1", "mapreduce-map2"
            ]

    def test_intermediate_volume(self):
        dag, _ = map_reduce_dag(2, 4, intermediate_bytes=100.0)
        mapper = dag.task("mapreduce-map0")
        assert mapper.output_bytes == pytest.approx(100.0)

    def test_invalid(self):
        with pytest.raises(WorkflowError):
            map_reduce_dag(0, 1)


class TestLayeredRandom:
    def test_task_count_and_validity(self):
        dag, externals = layered_random_dag(30, seed=1)
        assert len(dag) == 30
        dag.validate()
        assert externals  # at least level-0 tasks have external inputs

    def test_seed_determinism(self):
        a, _ = layered_random_dag(20, seed=9)
        b, _ = layered_random_dag(20, seed=9)
        assert a.task_names == b.task_names
        assert [t.work for t in a.tasks] == [t.work for t in b.tasks]
        assert a.edge_count == b.edge_count

    def test_different_seeds_differ(self):
        a, _ = layered_random_dag(20, seed=1)
        b, _ = layered_random_dag(20, seed=2)
        assert [t.work for t in a.tasks] != [t.work for t in b.tasks]

    def test_kind_mix_applied(self):
        dag, _ = layered_random_dag(
            50, kind_mix={"cpu": 0.5, "dnn": 0.5}, seed=3
        )
        kinds = {t.kind for t in dag.tasks}
        assert kinds == {"cpu", "dnn"}

    def test_work_range_respected(self):
        dag, _ = layered_random_dag(40, work_range=(2.0, 3.0), seed=4)
        assert all(2.0 <= t.work <= 3.0 for t in dag.tasks)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 60), levels=st.integers(1, 6),
           seed=st.integers(0, 100))
    def test_property_always_valid_dag(self, n, levels, seed):
        dag, externals = layered_random_dag(n, n_levels=levels, seed=seed)
        assert len(dag) == n
        dag.validate()
        order = dag.topological_order()
        assert len(order) == n
        # every consumed dataset is produced or external
        names = {d.name for d in externals}
        for task in dag.tasks:
            for inp in task.inputs:
                assert dag.producer_of(inp) is not None or inp in names


class TestMontage:
    def test_shape(self):
        dag, externals = montage_like_dag(4)
        # 4 project + 3 diff + 1 fit + 4 background + 1 add
        assert len(dag) == 13
        assert len(externals) == 4
        counts = dag.subgraph_counts()
        assert counts["sinks"] == 1

    def test_fit_gates_background(self):
        dag, _ = montage_like_dag(3)
        deps = dag.dependencies("montage-background0")
        assert "montage-fit" in deps
        assert "montage-project0" in deps

    def test_add_depends_on_all_backgrounds(self):
        dag, _ = montage_like_dag(3)
        assert dag.dependencies("montage-add") == [
            "montage-background0", "montage-background1", "montage-background2"
        ]

    def test_invalid(self):
        with pytest.raises(WorkflowError):
            montage_like_dag(1)
