"""Frozen per-input staging build: a reference for batch cost estimation.

This is :meth:`CostModel.estimate_batch` as it stood while every input
of a task got its own run of numpy calls (one ``_stage_arrays`` build
per dataset, then a per-row accumulation loop), before the cold inputs
of a task were built together in one ``(k x candidates)`` block. It is
kept outside the package as one side of the staging differential tests
and as the reference of the ``fan_in_reduce`` scheduler benchmark.

The functions take the :class:`CostModel` as ``self`` and read and
write its stage cache and row memo exactly as the shipped methods did,
so a model driven only through :func:`estimate_batch` carries the cache
entries the shipped code would have left. :func:`per_input_staging`
installs the frozen build in place of the production one.

Do not "improve" this module: its value is staying what shipped.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core.cost import (
    _ROW_CACHE_MAX,
    _SITE_NAME,
    BatchEstimate,
    CostModel,
)
from repro.errors import DataFabricError, SchedulingError
from tests.oracles.path_rows import path_rows


def _stage_times(lat: np.ndarray, bw: np.ndarray, cols: np.ndarray,
                 size: float) -> np.ndarray:
    """Unloaded staging times ``lat + size / bw`` over candidate columns.

    Unreachable destinations carry ``bw == 0`` in the path matrices
    (see :meth:`Topology.path_block`); they must estimate as ``inf`` —
    including for zero-byte datasets, where a bare ``0/0`` would poison
    the row with NaN and win every ``argmin``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        times = lat[cols] + size / bw[cols]
    unreachable = bw[cols] == 0.0
    if unreachable.any():
        times[unreachable] = np.inf
    return times


def _stage_arrays(self, name, names, cols, epoch):
    """Per-candidate staging contributions for one dataset, memoized
    per (routes epoch, dataset replica version) so one dataset's
    arrays survive other datasets being staged. Returns
    ``(stage_time, bytes, transfer_usd)`` with zeros at candidates
    that already hold a replica, or ``None`` when every candidate
    does (nothing to stage anywhere).

    Source choice reproduces :meth:`ReplicaCatalog.nearest_source`
    exactly: sources are folded in replica-registration order and a
    later source wins only on strictly smaller time, the scalar
    first-wins scan. A fold resumes from the cached minimum when
    replicas were only appended since, which keeps the same floats.
    """
    dsver = self.catalog.dataset_version(name)
    per_names = self._stage_cache.get(name)
    hit = per_names.get(names) if per_names is not None else None
    if hit is not None and hit[0] == epoch and hit[1] == dsver:
        return hit[5]
    size = self.catalog.dataset(name).size_bytes
    sources = self.catalog.locations(name)
    if not sources:
        raise DataFabricError(f"dataset {name!r} has no replicas")
    old = hit[2] if hit is not None and hit[0] == epoch else None
    if old is not None and sources[:len(old)] == old:
        start, t_best, u_best = len(old), hit[3], hit[4]
    else:
        lat, bw, usd = path_rows(self.topology, sources[0])
        start = 1
        t_best, u_best = _stage_times(lat, bw, cols, size), usd[cols]
    for src in sources[start:]:
        lat, bw, usd = path_rows(self.topology, src)
        t_new = _stage_times(lat, bw, cols, size)
        better = t_new < t_best
        t_best = np.where(better, t_new, t_best)
        u_best = np.where(better, usd[cols], u_best)
    held = set(sources)
    need = np.fromiter(
        (nm not in held for nm in names), dtype=bool, count=len(names),
    )
    if not need.any():
        arrays = None
    else:
        # pre-masked contribution arrays: adding 0.0 at resident
        # sites is a bit-exact no-op, so estimate_batch can
        # accumulate with plain ufuncs instead of fancy indexing
        with np.errstate(invalid="ignore"):
            usd_term = u_best * (size / 1e9)
        # unreachable candidates carry inf $/GB; inf * 0 bytes is
        # NaN, which must rank as unreachable, not free
        usd_term = np.where(np.isfinite(u_best), usd_term, np.inf)
        arrays = (
            np.where(need, t_best, 0.0),
            np.where(need, size, 0.0),
            np.where(need, usd_term, 0.0),
        )
    self._stage_cache.setdefault(name, {})[names] = (
        epoch, dsver, sources, t_best, u_best, arrays)
    return arrays


def estimate_batch(self, task, sites):
    """Vectorized :meth:`estimate` over many candidate sites.

    Produces arrays whose entries are bit-identical to the scalar
    estimates (same routing, same nearest-replica tie-breaks, same
    floating-point operation order), at O(inputs x sources) numpy
    work instead of O(sites x inputs x sources) Python work.
    """
    if not sites:
        raise SchedulingError("estimate_batch over an empty site list")
    names = tuple(map(_SITE_NAME, sites))
    n = len(names)
    epoch = self.topology.routes_epoch
    row_key = (task.inputs, task.kind, task.work, names)
    version = self.catalog.version
    row = self._row_cache.get(row_key)
    if row is not None and row[0] == epoch and row[1] == version:
        batch = BatchEstimate(task.name, names, *row[2])
        self._last_row = (row_key, epoch, version, batch)
        return batch
    cols, watts, price, _ = self._site_arrays(names, sites)
    stage = np.zeros(n)
    bytes_moved = np.zeros(n)
    transfer_usd = np.zeros(n)
    for name in task.inputs:
        arrays = _stage_arrays(self, name, names, cols, epoch)
        if arrays is None:
            continue
        t_add, b_add, u_add = arrays
        # parallel staging: per-site time is the max over needed
        # inputs; bytes and dollars accumulate in task.inputs order,
        # matching the scalar plan's summation order
        np.maximum(stage, t_add, out=stage)
        bytes_moved += b_add
        transfer_usd += u_add
    exec_t = task.work / self._speeds(names, task.kind, sites)
    # elementwise forms of PowerModel.marginal_energy and
    # PricingModel.compute_cost (slots=1): same operation order,
    # bit-identical to the scalar calls
    energy = watts * exec_t
    compute = price * (exec_t / 3600.0)
    batch = BatchEstimate(
        task=task.name,
        sites=names,
        stage_time_s=stage,
        exec_time_s=exec_t,
        bytes_moved=bytes_moved,
        energy_j=energy,
        compute_usd=compute,
        transfer_usd=transfer_usd,
    )
    arrays = (stage, exec_t, bytes_moved, energy, compute, transfer_usd)
    for a in arrays:
        a.setflags(write=False)
    if len(self._row_cache) >= _ROW_CACHE_MAX:
        self._row_cache.clear()
    self._row_cache[row_key] = (epoch, version, arrays)
    self._last_row = (row_key, epoch, version, batch)
    return batch


@contextmanager
def per_input_staging():
    """Run every :class:`CostModel` inside the block (subclasses such as
    the scalar oracle's un-memoized model included) on the frozen
    per-input staging build."""
    with mock.patch.object(CostModel, "estimate_batch", estimate_batch):
        yield
