"""Parameterized DAG families.

Every builder returns ``(dag, externals)`` where ``externals`` is the
list of :class:`Dataset` objects the DAG consumes but does not produce;
the caller decides which sites those start at (usually the edge — data
is born at the periphery).
"""

from __future__ import annotations

from repro.datafabric.dataset import Dataset
from repro.errors import WorkflowError
from repro.utils.rng import RngRegistry
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskSpec


def map_reduce_dag(
    n_map: int,
    n_reduce: int,
    *,
    map_work: float = 10.0,
    reduce_work: float = 5.0,
    input_bytes: float = 1e8,
    intermediate_bytes: float = 1e7,
    name: str = "mapreduce",
) -> tuple[WorkflowDAG, list[Dataset]]:
    """Classic shuffle: every reducer reads every mapper's partition."""
    if n_map < 1 or n_reduce < 1:
        raise WorkflowError("map-reduce needs >= 1 mapper and reducer")
    dag = WorkflowDAG(name)
    externals = []
    partitions: list[list[Dataset]] = []
    for m in range(n_map):
        raw = Dataset(f"{name}-in{m}", input_bytes)
        externals.append(raw)
        parts = [
            Dataset(f"{name}-m{m}r{r}", intermediate_bytes / n_reduce)
            for r in range(n_reduce)
        ]
        partitions.append(parts)
        dag.add_task(TaskSpec(f"{name}-map{m}", work=map_work,
                              inputs=(raw.name,), outputs=tuple(parts)))
    for r in range(n_reduce):
        inputs = tuple(partitions[m][r].name for m in range(n_map))
        dag.add_task(TaskSpec(f"{name}-reduce{r}", work=reduce_work,
                              inputs=inputs))
    return dag, externals


def layered_random_dag(
    n_tasks: int,
    *,
    n_levels: int = 4,
    max_inputs: int = 4,
    work_range: tuple[float, float] = (5.0, 50.0),
    data_range: tuple[float, float] = (1e7, 1e8),
    kind_mix: dict[str, float] | None = None,
    seed: int = 0,
    name: str = "layered",
) -> tuple[WorkflowDAG, list[Dataset]]:
    """Random layered DAG: tasks spread over levels; each non-source
    task reads 1..``max_inputs`` randomly chosen outputs of the previous
    level. Bounded fan-in keeps edge count linear in ``n_tasks`` (the
    standard construction in scheduler-comparison literature; E2/E3)."""
    if n_tasks < 1 or n_levels < 1:
        raise WorkflowError("need >= 1 task and >= 1 level")
    rng = RngRegistry(seed).stream(f"dag:{name}")
    kinds, weights = ["generic"], [1.0]
    if kind_mix:
        kinds = list(kind_mix)
        total = sum(kind_mix.values())
        weights = [v / total for v in kind_mix.values()]
    dag = WorkflowDAG(name)
    externals: list[Dataset] = []
    # assign tasks to levels (each level gets at least one while any remain)
    level_of = sorted(int(rng.integers(n_levels)) for _ in range(n_tasks))
    levels: list[list[str]] = [[] for _ in range(n_levels)]
    outputs_by_level: list[list[Dataset]] = [[] for _ in range(n_levels)]
    for i in range(n_tasks):
        level = level_of[i]
        task_name = f"{name}-t{i}"
        work = float(rng.uniform(*work_range))
        out_bytes = float(rng.uniform(*data_range))
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        out = Dataset(f"{name}-o{i}", out_bytes)
        if level == 0 or not outputs_by_level[level - 1]:
            raw = Dataset(f"{name}-x{i}", float(rng.uniform(*data_range)))
            externals.append(raw)
            inputs = (raw.name,)
        else:
            prev = outputs_by_level[level - 1]
            k = min(int(rng.integers(1, max_inputs + 1)), len(prev))
            picks = rng.choice(len(prev), size=k, replace=False)
            inputs = tuple(prev[int(p)].name for p in picks)
        dag.add_task(TaskSpec(task_name, work=work, kind=kind,
                              inputs=inputs, outputs=(out,)))
        levels[level].append(task_name)
        outputs_by_level[level].append(out)
    return dag, externals


def stencil_dag(
    n_partitions: int,
    n_iterations: int,
    *,
    work_per_step: float = 10.0,
    halo_bytes: float = 1e6,
    name: str = "stencil",
) -> tuple[WorkflowDAG, list[Dataset]]:
    """Iterative halo-exchange stencil (1-D domain decomposition).

    Partition ``p`` at iteration ``k`` reads its own previous state plus
    the previous states of its neighbours ``p-1``/``p+1`` — the
    communication pattern of explicit PDE solvers. Tight halo coupling
    punishes placements that scatter neighbouring partitions across slow
    links, which makes this the adversarial workload for data-gravity
    versus locality-blind strategies.
    """
    if n_partitions < 1 or n_iterations < 1:
        raise WorkflowError("stencil needs >= 1 partition and iteration")
    dag = WorkflowDAG(name)
    externals = []
    # state[k][p] is the dataset produced by partition p at iteration k
    state: list[list[Dataset]] = [[]]
    for p in range(n_partitions):
        initial = Dataset(f"{name}-init{p}", halo_bytes)
        externals.append(initial)
        state[0].append(initial)
    for k in range(1, n_iterations + 1):
        state.append([])
        for p in range(n_partitions):
            out = Dataset(f"{name}-s{k}p{p}", halo_bytes)
            neighbours = [p]
            if p > 0:
                neighbours.append(p - 1)
            if p < n_partitions - 1:
                neighbours.append(p + 1)
            inputs = tuple(state[k - 1][q].name for q in sorted(neighbours))
            dag.add_task(TaskSpec(f"{name}-k{k}p{p}", work=work_per_step,
                                  inputs=inputs, outputs=(out,)))
            state[k].append(out)
    return dag, externals


def montage_like_dag(
    n_inputs: int,
    *,
    project_work: float = 8.0,
    diff_work: float = 2.0,
    fit_work: float = 1.0,
    background_work: float = 4.0,
    add_work: float = 20.0,
    tile_bytes: float = 5e7,
    name: str = "montage",
) -> tuple[WorkflowDAG, list[Dataset]]:
    """Astronomy-mosaic shape: per-tile projection, pairwise diffs over
    neighbouring tiles, a global fit, per-tile background correction,
    and a final co-addition — the classic data-bound science workflow."""
    if n_inputs < 2:
        raise WorkflowError(f"montage needs >= 2 inputs, got {n_inputs}")
    dag = WorkflowDAG(name)
    externals = []
    projected = []
    for i in range(n_inputs):
        raw = Dataset(f"{name}-img{i}", tile_bytes)
        externals.append(raw)
        out = Dataset(f"{name}-proj{i}", tile_bytes)
        projected.append(out)
        dag.add_task(TaskSpec(f"{name}-project{i}", work=project_work,
                              inputs=(raw.name,), outputs=(out,)))
    diffs = []
    for i in range(n_inputs - 1):
        out = Dataset(f"{name}-diff{i}", tile_bytes / 10)
        diffs.append(out)
        dag.add_task(TaskSpec(
            f"{name}-diff{i}", work=diff_work,
            inputs=(projected[i].name, projected[i + 1].name),
            outputs=(out,),
        ))
    fit_out = Dataset(f"{name}-fit", 1e6)
    dag.add_task(TaskSpec(f"{name}-fit", work=fit_work,
                          inputs=tuple(d.name for d in diffs),
                          outputs=(fit_out,)))
    corrected = []
    for i in range(n_inputs):
        out = Dataset(f"{name}-bg{i}", tile_bytes)
        corrected.append(out)
        dag.add_task(TaskSpec(f"{name}-background{i}", work=background_work,
                              inputs=(projected[i].name, fit_out.name),
                              outputs=(out,)))
    dag.add_task(TaskSpec(f"{name}-add", work=add_work,
                          inputs=tuple(c.name for c in corrected)))
    return dag, externals
