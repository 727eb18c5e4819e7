"""Differential tests: WorkflowDAG analyses against an ``nx.DiGraph``.

Each random task list is also wired into a networkx graph by the same
insertion steps (producer edges, ``after=`` edges, then edges to
consumers added earlier). Every order-sensitive analysis (topological
order, levels, the first-max predecessor chosen by the critical path)
must agree with the same computation over networkx's adjacency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datafabric import Dataset
from repro.errors import WorkflowError
from repro.workflow import TaskSpec, WorkflowDAG

nx = pytest.importorskip("networkx")

WORKS = (0.0, 1.0, 2.0, 3.0)


@st.composite
def task_lists(draw):
    """Tasks ``t0..tn-1`` inserted in a random order. Task ``ti``
    produces ``di``, and ``ei`` too when ``i`` is even, and reads ``xi``
    (produced by nobody) plus outputs of lower-numbered tasks, some
    inserted after it, so consumer-first wiring is exercised too. A
    task may read both outputs of one producer: two inputs, or two
    waits, that make one edge. ``after=`` names lower-numbered tasks
    already inserted, a producer of its inputs among them at times."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    outputs = [[f"d{i}"] + ([f"e{i}"] if i % 2 == 0 else [])
               for i in range(n)]
    tasks = []
    for pos, i in enumerate(order):
        lower = [out for j in range(i) for out in outputs[j]]
        inputs = draw(st.lists(st.sampled_from(lower), unique=True,
                               max_size=3)) if lower else []
        known = sorted(set(order[:pos]) & set(range(i)))
        after = draw(st.lists(st.sampled_from(known), unique=True,
                              max_size=2)) if known else []
        tasks.append(TaskSpec(
            f"t{i}", draw(st.sampled_from(WORKS)),
            inputs=(f"x{i}", *inputs),
            outputs=tuple(Dataset(out, 1) for out in outputs[i]),
            after=tuple(f"t{j}" for j in after),
        ))
    return tasks


def networkx_twin(tasks) -> "nx.DiGraph":
    graph = nx.DiGraph()
    producer: dict[str, str] = {}
    consumers: dict[str, list[str]] = {}
    for task in tasks:
        graph.add_node(task.name)
        for out in task.output_names:
            producer[out] = task.name
        for inp in task.inputs:
            consumers.setdefault(inp, []).append(task.name)
        for inp in task.inputs:
            if producer.get(inp) not in (None, task.name):
                graph.add_edge(producer[inp], task.name)
        for dep in task.after:
            graph.add_edge(dep, task.name)
        for out in task.output_names:
            for consumer in consumers.get(out, ()):
                if consumer != task.name:
                    graph.add_edge(task.name, consumer)
    return graph


def state(dag: WorkflowDAG):
    """Everything insertion touches, order included."""
    return (
        list(dag._tasks.items()),
        list(dag._producer.items()),
        [(k, list(v)) for k, v in dag._consumers.items()],
        [(k, list(v)) for k, v in dag._succ.items()],
        [(k, list(v)) for k, v in dag._pred.items()],
    )


@settings(max_examples=400, deadline=None)
@given(task_lists())
def test_analyses_match_networkx(tasks):
    dag = WorkflowDAG().extend(tasks)
    graph = networkx_twin(tasks)
    index = {name: i for i, name in enumerate(dag.task_names)}

    assert dag.edge_count == graph.number_of_edges()
    for name in dag.task_names:
        assert dag.dependencies(name) == sorted(graph.predecessors(name))
        assert dag.dependents(name) == sorted(graph.successors(name))

    order = list(nx.lexicographical_topological_sort(graph, key=index.get))
    assert dag.topological_order() == order

    depth = {}
    for name in order:
        depth[name] = 1 + max((depth[p] for p in graph.predecessors(name)),
                              default=-1)
    levels = [[] for _ in range(max(depth.values()) + 1)]
    for name, d in depth.items():
        levels[d].append(name)
    assert dag.levels() == levels

    work = {t.name: t.work for t in tasks}
    finish, best = {}, {}
    for name in order:
        preds = list(graph.predecessors(name))
        best[name] = max(preds, key=finish.get) if preds else None
        finish[name] = (finish[best[name]] if preds else 0.0) + work[name]
    end = max(finish, key=finish.get)
    path = [end]
    while best[path[-1]] is not None:
        path.append(best[path[-1]])
    assert dag.critical_path() == (finish[end], path[::-1])

    rank = {}
    for name in reversed(order):
        rank[name] = work[name] + max(
            (rank[s] for s in graph.successors(name)), default=0.0)
    assert dag.bottom_levels() == rank

    assert dag.subgraph_counts() == {
        "sources": sum(1 for _, d in graph.in_degree() if d == 0),
        "sinks": sum(1 for _, d in graph.out_degree() if d == 0),
        "max_width": max(len(level) for level in levels),
    }


@settings(max_examples=300, deadline=None)
@given(task_lists(), st.data())
def test_rejected_cycle_leaves_dag_unchanged(tasks, data):
    """A task reading ``d<src>`` and producing ``x<dst>`` adds the edges
    ``t<src> -> closer -> t<dst>``: a cycle exactly when ``t<dst>``
    already reaches ``t<src>``. It also waits on ``fresh`` (a new
    consumer entry) and on ``x<also>`` (an entry it extends), so the
    rejection has entries to drop, shorten and keep."""
    dag = WorkflowDAG().extend(tasks)
    graph = networkx_twin(tasks)
    src = data.draw(st.sampled_from(dag.task_names))
    dst = data.draw(st.sampled_from(dag.task_names))
    also = data.draw(st.sampled_from(dag.task_names))
    closer = TaskSpec("closer", 1.0,
                      inputs=(f"d{src[1:]}", "fresh", f"x{also[1:]}"),
                      outputs=(Dataset(f"x{dst[1:]}", 1),))
    before = state(dag)
    if nx.has_path(graph, dst, src):
        with pytest.raises(WorkflowError, match="cycle"):
            dag.add_task(closer)
        assert state(dag) == before
    else:
        dag.add_task(closer)
        assert dag.dependencies("closer") == [src]
        assert dag.dependents("closer") == [dst]

    # A fixed rejection whose producer already has successors, and
    # whose every edge is added twice (two inputs of one producer, the
    # same producer in after=, a waiting consumer of two of its
    # outputs): rollback removes exactly the new edges, once each.
    dag = WorkflowDAG().extend([
        TaskSpec("a", 1.0, inputs=("y", "z"),
                 outputs=(Dataset("da", 1), Dataset("ea", 1))),
        TaskSpec("b", 1.0, inputs=("da",)),
        TaskSpec("c", 1.0, inputs=("ea", "z")),
    ])
    before = state(dag)
    with pytest.raises(WorkflowError, match="cycle"):
        dag.add_task(TaskSpec("closer", 1.0, inputs=("da", "ea"),
                              outputs=(Dataset("y", 1), Dataset("z", 1)),
                              after=("a",)))
    assert state(dag) == before
    assert dag._succ == {"a": ["b", "c"]}
    assert dag._consumers == {"y": ["a"], "z": ["a", "c"]}
