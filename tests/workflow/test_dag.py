import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datafabric import Dataset
from repro.errors import WorkflowError
from repro.workflow import TaskSpec, WorkflowDAG


def diamond():
    """a -> (b, c) -> d via datasets."""
    dag = WorkflowDAG("diamond")
    dag.add_task(TaskSpec("a", 1.0, outputs=(Dataset("da", 10),)))
    dag.add_task(TaskSpec("b", 2.0, inputs=("da",), outputs=(Dataset("db", 10),)))
    dag.add_task(TaskSpec("c", 3.0, inputs=("da",), outputs=(Dataset("dc", 10),)))
    dag.add_task(TaskSpec("d", 1.0, inputs=("db", "dc")))
    return dag


class TestConstruction:
    def test_dataflow_edges_inferred(self):
        dag = diamond()
        assert dag.dependencies("d") == ["b", "c"]
        assert dag.dependents("a") == ["b", "c"]
        assert dag.edge_count == 4

    def test_duplicate_task_rejected(self):
        dag = diamond()
        with pytest.raises(WorkflowError):
            dag.add_task(TaskSpec("a", 1.0))

    def test_two_producers_of_same_dataset_rejected(self):
        dag = WorkflowDAG()
        dag.add_task(TaskSpec("a", 1.0, outputs=(Dataset("x", 1),)))
        with pytest.raises(WorkflowError):
            dag.add_task(TaskSpec("b", 1.0, outputs=(Dataset("x", 1),)))

    def test_after_control_edge(self):
        dag = WorkflowDAG()
        dag.add_task(TaskSpec("a", 1.0))
        dag.add_task(TaskSpec("b", 1.0, after=("a",)))
        assert dag.dependencies("b") == ["a"]

    def test_after_unknown_task_rejected_without_corruption(self):
        dag = WorkflowDAG()
        dag.add_task(TaskSpec("a", 1.0))
        with pytest.raises(WorkflowError):
            dag.add_task(TaskSpec("b", 1.0, after=("ghost",)))
        # failed insert left no residue
        assert "b" not in dag
        assert len(dag) == 1

    def test_consumer_added_before_producer(self):
        dag = WorkflowDAG()
        dag.add_task(TaskSpec("consumer", 1.0, inputs=("x",)))
        dag.add_task(TaskSpec("producer", 1.0, outputs=(Dataset("x", 1),)))
        assert dag.dependencies("consumer") == ["producer"]

    def test_cycle_rejected_and_rolled_back(self):
        dag = WorkflowDAG()
        dag.add_task(TaskSpec("a", 1.0, inputs=("dy",),
                              outputs=(Dataset("dx", 1),)))
        with pytest.raises(WorkflowError, match="cycle"):
            dag.add_task(TaskSpec("b", 1.0, inputs=("dx",),
                                  outputs=(Dataset("dy", 1),)))
        assert "b" not in dag
        assert dag.producer_of("dy") is None

    def test_external_inputs(self):
        dag = diamond()
        assert dag.external_inputs() == set()
        dag.add_task(TaskSpec("e", 1.0, inputs=("raw",)))
        assert dag.external_inputs() == {"raw"}

    def test_totals(self):
        dag = diamond()
        assert dag.total_work == 7.0
        assert dag.total_output_bytes == 30.0

    def test_extend_chaining(self):
        dag = WorkflowDAG().extend([TaskSpec("a", 1.0), TaskSpec("b", 1.0)])
        assert len(dag) == 2

    def test_validate_empty(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG().validate()


class TestIndexSize:
    """Counting tests: the DAG's indexes hold only what wiring and the
    analyses need, never an entry per dataset or per task."""

    @staticmethod
    def fork_join(width=4, join_first=False):
        branches = [TaskSpec(f"b{i}", 1.0, inputs=("raw", "ref"),
                             outputs=(Dataset(f"p{i}", 1),))
                    for i in range(width)]
        join = TaskSpec("join", 1.0,
                        inputs=tuple(f"p{i}" for i in range(width)))
        tasks = [join, *branches] if join_first else [*branches, join]
        return WorkflowDAG("fork-join").extend(tasks)

    @pytest.mark.parametrize("join_first", [False, True])
    def test_consumers_index_external_inputs_only(self, join_first):
        dag = self.fork_join(join_first=join_first)
        assert dag._consumers == {"raw": ["b0", "b1", "b2", "b3"],
                                  "ref": ["b0", "b1", "b2", "b3"]}
        assert dag.dependencies("join") == ["b0", "b1", "b2", "b3"]

    def test_adjacency_only_for_tasks_with_edges(self):
        dag = self.fork_join()
        dag.add_task(TaskSpec("lone", 1.0))
        assert list(dag._succ) == ["b0", "b1", "b2", "b3"]
        assert list(dag._pred) == ["join"]
        assert dag.dependents("lone") == dag.dependencies("lone") == []
        assert dag.subgraph_counts() == {"sources": 5, "sinks": 2,
                                         "max_width": 5}

    @pytest.mark.parametrize("join_first", [False, True])
    def test_adjacency_values_are_lists_in_edge_order(self, join_first):
        dag = self.fork_join(join_first=join_first)
        assert dag._succ == {f"b{i}": ["join"] for i in range(4)}
        assert dag._pred == {"join": ["b0", "b1", "b2", "b3"]}

    @staticmethod
    def producers(*outputs):
        """``q`` producing ``w`` then ``p`` producing ``outputs``."""
        return [TaskSpec("q", 1.0, outputs=(Dataset("w", 1),)),
                TaskSpec("p", 1.0,
                         outputs=tuple(Dataset(o, 1) for o in outputs))]

    @pytest.mark.parametrize("tasks, succ, pred", [
        # two inputs from one producer
        ([*producers("x", "y"),
          TaskSpec("c", 1.0, inputs=("x", "w", "y"))],
         {"q": ["c"], "p": ["c"]}, {"c": ["p", "q"]}),
        # a producer also named in after=, and an after= named twice
        ([*producers("x"),
          TaskSpec("c", 1.0, inputs=("x",), after=("q", "p", "q"))],
         {"p": ["c"], "q": ["c"]}, {"c": ["p", "q"]}),
        # a waiting consumer that reads two of the new task's outputs;
        # c2 is the producer's last successor when c comes up again
        ([TaskSpec("q", 1.0, outputs=(Dataset("w", 1),)),
          TaskSpec("c", 1.0, inputs=("x", "w", "y")),
          TaskSpec("c2", 1.0, inputs=("y",)),
          TaskSpec("p", 1.0, outputs=(Dataset("y", 1), Dataset("x", 1)))],
         {"q": ["c"], "p": ["c", "c2"]}, {"c": ["q", "p"], "c2": ["p"]}),
    ], ids=["two-inputs", "after", "waiting-consumer"])
    def test_duplicate_edge_is_one_entry(self, tasks, succ, pred):
        dag = WorkflowDAG().extend(tasks)
        assert dag._succ == succ and dag._pred == pred
        assert dag.edge_count == sum(map(len, succ.values()))


class TestAnalyses:
    def test_topological_order_respects_edges(self):
        dag = diamond()
        order = dag.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        assert pos["a"] < pos["b"] < pos["d"]
        assert pos["a"] < pos["c"] < pos["d"]

    def test_topological_order_deterministic_by_insertion(self):
        dag = diamond()
        assert dag.topological_order() == ["a", "b", "c", "d"]

    def test_levels(self):
        levels = diamond().levels()
        assert levels == [["a"], ["b", "c"], ["d"]]

    def test_critical_path_default_work(self):
        length, path = diamond().critical_path()
        # a(1) -> c(3) -> d(1) = 5
        assert length == 5.0
        assert path == ["a", "c", "d"]

    def test_critical_path_custom_time(self):
        length, path = diamond().critical_path(time_of=lambda t: 1.0)
        assert length == 3.0

    def test_bottom_levels_monotone_along_edges(self):
        dag = diamond()
        rank = dag.bottom_levels()
        assert rank["a"] == 5.0   # whole critical path
        assert rank["d"] == 1.0
        for name in dag.task_names:
            for succ in dag.dependents(name):
                assert rank[name] > rank[succ]

    def test_subgraph_counts(self):
        counts = diamond().subgraph_counts()
        assert counts == {"sources": 1, "sinks": 1, "max_width": 2}

    def test_single_task_critical_path(self):
        dag = WorkflowDAG().extend([TaskSpec("only", 4.0)])
        assert dag.critical_path() == (4.0, ["only"])


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.1, 10.0), min_size=1, max_size=15),
        st.data(),
    )
    def test_random_layered_dag_invariants(self, works, data):
        """Random DAGs built by linking each task to earlier ones keep
        the invariants: critical path <= total work; bottom level of a
        source equals critical path when unique source."""
        dag = WorkflowDAG()
        names = []
        for i, w in enumerate(works):
            deps = ()
            if names:
                k = data.draw(st.integers(0, min(3, len(names))))
                deps = tuple(
                    data.draw(st.sampled_from(names)) for _ in range(k)
                )
            dag.add_task(TaskSpec(f"t{i}", w, after=tuple(set(deps))))
            names.append(f"t{i}")
        length, path = dag.critical_path()
        assert length <= dag.total_work + 1e-9
        assert length >= max(works) - 1e-9
        # path is a real chain
        for a, b in zip(path, path[1:]):
            assert a in dag.dependencies(b)
        # bottom level max equals critical path length
        assert max(dag.bottom_levels().values()) == pytest.approx(length)
