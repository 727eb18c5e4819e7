"""Frozen scalar dispatch: the wave path's correctness oracle.

This is the task-at-a-time placement loop exactly as it stood before
wave-batched dispatch. :func:`scalar_engine` installs it in place of
``repro.core.scheduler.wave_dispatch`` together with a cost model that
never reuses a row, so its estimates are recomputed from scratch for
every task — the differential tests compare the wave path's memoized
decision stream against genuinely independent arithmetic, and
``tests/integration/test_dispatch_tables.py`` compares whole
experiment tables across the two engines.

Do not "improve" this loop. Its entire value is staying byte-for-byte
what shipped: any divergence between it and the wave path is a wave
bug by definition.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.core.cost import CostModel
from repro.core.placement import PlacementDecision
from repro.errors import SchedulingError


def scalar_dispatch(run, batch, vetoed) -> None:
    """Place one ready batch task-at-a-time (pre-wave semantics).

    ``run`` is the scheduler's ``_Run``; the caller has already set the
    context clock, installed the breaker veto set, and confirmed at
    least one candidate is up. Held tasks go back on ``run.ready``.
    """
    for task in run.strategy.prioritize(batch, run.ctx):
        if task.pinned_site and run.ctx.is_down(task.pinned_site):
            # pinned to a dark site: hold until it recovers
            # (pins override breaker vetoes — there is no choice)
            run.ready.append(task)
            continue
        try:
            site_name = task.pinned_site or run.strategy.select_site(
                task, run.ctx
            )
        except SchedulingError:
            if run.failures is not None or vetoed:
                # transiently unplaceable (e.g. the strategy's whole
                # tier is dark or vetoed): hold until recovery
                run.ready.append(task)
                continue
            raise
        if site_name not in run.resources:
            raise SchedulingError(
                f"strategy chose non-candidate site {site_name!r} "
                f"for task {task.name!r}"
            )
        est, est_finish = run.ctx.estimate_finish(
            task, run.ctx.site(site_name)
        )
        run.ctx.reserve(site_name, est_finish)
        decision = PlacementDecision(
            task=task.name, site=site_name, decided_at=run.sim.now,
            est_stage_s=est.stage_time_s, est_exec_s=est.exec_time_s,
            est_finish=est_finish,
        )
        if run.decisions is not None:   # stream runs keep no log
            run.decisions.append(decision)
        if run._m_decisions is not None:
            run._m_decisions.labels(
                site=site_name, strategy=run.strategy.name).inc()
        run._placed(task)   # reader counts fall at placement
        run._start_attempt(task, site_name, decision)


class UnmemoizedCostModel(CostModel):
    """Cost model that never serves a memoized row: every
    :meth:`estimate_batch` recomputes, and ``row_times`` always misses."""

    def estimate_batch(self, task, sites):
        batch = super().estimate_batch(task, sites)
        self._row_cache.clear()
        self._last_row = None
        return batch


@contextmanager
def scalar_engine():
    """Run every scheduler built inside the block on the scalar oracle:
    task-at-a-time placement over an un-memoized cost model."""
    with mock.patch("repro.core.scheduler.wave_dispatch", scalar_dispatch), \
            mock.patch("repro.core.context.CostModel", UnmemoizedCostModel):
        yield
