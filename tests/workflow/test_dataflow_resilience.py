"""Resilience features of the dataflow kernel: backoff-paced retries,
attempt timeouts, cancellation, and the memo/checkpoint safety
regressions (failed attempts never memoized; durable checkpoints)."""

import os
import threading
import time

import pytest

from repro.errors import TaskFailedError, WorkflowError
from repro.resilience import RetryBudget, RetryPolicy
from repro.workflow import DataFlowKernel
from repro.workflow.checkpoint import load_checkpoint, save_checkpoint
from repro.workflow.executors import SerialExecutor, ThreadExecutor


class TestBackoffRetries:
    def test_policy_paces_retries(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.05,
                             backoff_factor=1.0, jitter_frac=0.0)
        calls = []

        def flaky():
            calls.append(time.perf_counter())
            if len(calls) < 3:
                raise ValueError("transient")
            return "ok"

        with DataFlowKernel(ThreadExecutor(2), retries=4,
                            retry_policy=policy) as dfk:
            fut = dfk.submit(flaky)
            assert fut.result(timeout=10) == "ok"
        assert len(calls) == 3
        # both retries waited out the 0.05 s backoff
        assert calls[1] - calls[0] >= 0.04
        assert calls[2] - calls[1] >= 0.04

    def test_budget_cooldown_applies_when_exhausted(self):
        calls = []

        def flaky():
            calls.append(time.perf_counter())
            if len(calls) < 2:
                raise ValueError("once")
            return 1

        budget = RetryBudget(0, cooldown_s=0.1)
        with DataFlowKernel(ThreadExecutor(2), retries=2,
                            retry_budget=budget) as dfk:
            assert dfk.submit(flaky).result(timeout=10) == 1
        assert budget.denied == 1
        assert calls[1] - calls[0] >= 0.08

    def test_budget_accepts_plain_int(self):
        with DataFlowKernel(SerialExecutor(), retries=1,
                            retry_budget=5) as dfk:
            assert dfk.retry_budget.remaining == 5


class TestAttemptTimeouts:
    def test_timeout_retries_then_succeeds(self):
        attempts = []

        def slow_once():
            attempts.append(None)
            if len(attempts) == 1:
                time.sleep(0.5)
            return len(attempts)

        with DataFlowKernel(ThreadExecutor(2), retries=2) as dfk:
            fut = dfk.submit(slow_once, timeout_s=0.1)
            assert fut.result(timeout=10) == 2
            assert dfk.tasks_timed_out == 1
        assert fut.tries == 2

    def test_timeouts_exhausted_surface_workflow_error_with_history(self):
        def always_slow():
            time.sleep(0.5)

        with DataFlowKernel(ThreadExecutor(2), retries=1) as dfk:
            fut = dfk.submit(always_slow, timeout_s=0.05)
            with pytest.raises(WorkflowError) as info:
                fut.result(timeout=10)
        message = str(info.value)
        assert "timed out on all 2 attempts" in message
        assert "attempt 1 timed out" in message
        assert "attempt 2 timed out" in message

    def test_late_result_never_memoized_or_delivered(self):
        """The timed-out attempt finishes *after* the watchdog; its
        value must not land in the memo table or the future."""
        release = threading.Event()
        calls = []

        def slow_then_wrong():
            calls.append(None)
            if len(calls) == 1:     # first attempt: blocks, answers late
                release.wait(2.0)
                return "late-and-wrong"
            return "fresh"

        with DataFlowKernel(ThreadExecutor(2), retries=1,
                            memoize=True) as dfk:
            fut = dfk.submit(slow_then_wrong, timeout_s=0.1)
            assert fut.result(timeout=10) == "fresh"
            release.set()           # now the stale attempt finishes late
            time.sleep(0.1)         # ... and its result must be dropped
            assert fut.result() == "fresh"
            # a rerun must hit the memoized *fresh* value
            again = dfk.submit(slow_then_wrong)
            assert again.result(timeout=10) == "fresh"
            assert again.from_memo

    def test_kernel_default_timeout_applies(self):
        with DataFlowKernel(ThreadExecutor(2), task_timeout_s=0.05) as dfk:
            fut = dfk.submit(time.sleep, 0.5)
            with pytest.raises(WorkflowError):
                fut.result(timeout=10)

    def test_invalid_timeouts_rejected(self):
        with pytest.raises(WorkflowError):
            DataFlowKernel(SerialExecutor(), task_timeout_s=0.0)
        with DataFlowKernel(SerialExecutor()) as dfk:
            with pytest.raises(WorkflowError):
                dfk.submit(lambda: 1, timeout_s=-1.0)


class TestCancellation:
    def test_cancel_before_start(self):
        ran = []
        gate = threading.Event()

        def blocker():
            gate.wait(2.0)
            return "gate"

        def never(_x):
            ran.append(None)
            return "never"

        with DataFlowKernel(ThreadExecutor(1)) as dfk:
            dep = dfk.submit(blocker)
            fut = dfk.submit(never, dep)
            assert fut.cancel()
            gate.set()
            dep.result(timeout=10)
            time.sleep(0.1)         # let the dependency callback drain
            assert fut.cancelled()
            assert ran == []
            assert dfk.tasks_cancelled == 1

    def test_cancel_while_running_discards_result(self):
        started = threading.Event()
        release = threading.Event()

        def running():
            started.set()
            release.wait(2.0)
            return "discarded"

        with DataFlowKernel(ThreadExecutor(1), memoize=True) as dfk:
            fut = dfk.submit(running)
            assert started.wait(2.0)
            assert fut.cancel()      # kernel futures are never RUNNING
            release.set()
            time.sleep(0.2)          # let the executor callback drain
            assert fut.cancelled()
            with pytest.raises(Exception):
                fut.result(timeout=1)
            assert dfk.tasks_cancelled == 1
            # the discarded value was not memoized
            again = dfk.submit(running)
            assert again.result(timeout=10) == "discarded"
            assert not again.from_memo

    def test_double_cancel_is_idempotent(self):
        gate = threading.Event()
        with DataFlowKernel(ThreadExecutor(1)) as dfk:
            blocker = dfk.submit(gate.wait, 2.0)
            fut = dfk.submit(lambda _x: 1, blocker)
            assert fut.cancel()
            assert fut.cancel()      # second cancel: still True, no crash
            gate.set()
            blocker.result(timeout=10)
            time.sleep(0.1)
            assert fut.cancelled()
            assert dfk.tasks_cancelled == 1

    def test_dependents_of_cancelled_future_fail(self):
        gate = threading.Event()
        with DataFlowKernel(ThreadExecutor(1)) as dfk:
            blocker = dfk.submit(gate.wait, 2.0)
            parent = dfk.submit(lambda _x: 1, blocker)
            child = dfk.submit(lambda x: x + 1, parent)
            parent.cancel()
            gate.set()
            with pytest.raises(TaskFailedError):
                child.result(timeout=10)


class TestMemoSafetyRegression:
    def test_failed_attempt_never_memoized(self):
        """fail-then-succeed under retries=1: only the success lands in
        the memo table, and only the success reaches any checkpoint."""
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) == 1:
                raise ValueError("first attempt fails")
            return x * 10

        with DataFlowKernel(SerialExecutor(), retries=1,
                            memoize=True) as dfk:
            fut = dfk.submit(flaky, 4)
            assert fut.result(timeout=10) == 40
            assert fut.tries == 2
            # memo table holds exactly the one (successful) entry
            assert len(dfk.memoizer.export()) == 1
            (value,) = dfk.memoizer.export().values()
            assert value == 40
            # a rerun is served from memo — flaky is not called again
            again = dfk.submit(flaky, 4)
            assert again.result(timeout=10) == 40
            assert again.from_memo
            assert len(calls) == 2

    def test_checkpoint_contains_only_successes(self, tmp_path):
        path = str(tmp_path / "memo.ckpt")

        def half(x):
            if x % 2:
                raise ValueError("odd")
            return x // 2

        with DataFlowKernel(SerialExecutor(), retries=0,
                            checkpoint_path=path) as dfk:
            ok = dfk.submit(half, 8)
            bad = dfk.submit(half, 3)
            assert ok.result(timeout=10) == 4
            with pytest.raises(ValueError):
                bad.result(timeout=10)
            dfk.checkpoint()
        table = load_checkpoint(path)
        assert list(table.values()) == [4]


class TestCheckpointDurability:
    def test_save_fsyncs_before_replace(self, tmp_path, monkeypatch):
        """fsync must happen on the temp file before os.replace."""
        path = str(tmp_path / "memo.ckpt")
        synced = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        def spy_replace(src, dst):
            assert synced, "os.replace ran before any fsync"
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        save_checkpoint(path, {"k": 1})
        assert load_checkpoint(path) == {"k": 1}

    def test_failed_replace_leaves_no_litter_and_old_checkpoint(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "memo.ckpt")
        save_checkpoint(path, {"old": 1})

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_checkpoint(path, {"new": 2})
        monkeypatch.undo()
        # old checkpoint intact, no temp litter
        assert load_checkpoint(path) == {"old": 1}
        assert os.listdir(tmp_path) == ["memo.ckpt"]
