"""The real-execution dataflow kernel.

:class:`DataFlowKernel` runs Python callables with Parsl semantics:

- ``submit(fn, *args)`` returns an :class:`AppFuture` immediately,
- any :class:`~concurrent.futures.Future` among the arguments is an
  implicit dependency; the task launches when all resolve, with the
  future values substituted in place,
- failed dependencies fail dependents with :class:`TaskFailedError`,
- per-task retries (optionally paced by a
  :class:`~repro.resilience.RetryPolicy` — exponential backoff with
  seeded jitter — and bounded by a run-wide
  :class:`~repro.resilience.RetryBudget`),
- per-task attempt timeouts: a watchdog abandons an attempt that
  overruns its deadline, retries it, and guarantees the late result is
  never stored or delivered; exhausted timeouts surface as
  :class:`WorkflowError` carrying the full attempt history,
- cooperative cancellation: ``AppFuture.cancel()`` works any time
  before completion — unlaunched tasks never run, in-flight results
  are discarded (and never memoized),
- optional memoization ("app caching") and checkpointing of the memo
  table across runs; only *successful* results are ever memoized.

The kernel is executor-agnostic (threads or serial) and thread-safe:
dependency callbacks fire on worker threads.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field

from repro.errors import TaskFailedError, WorkflowError
from repro.observe.span import Span
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.resilience.retry import RetryBudget, RetryPolicy
from repro.workflow.checkpoint import load_checkpoint, save_checkpoint
from repro.workflow.executors import ExecutorBase, ThreadExecutor
from repro.workflow.futures import AppFuture
from repro.workflow.memoization import Memoizer, make_key


@dataclass
class _TaskRecord:
    fn: object
    args: tuple
    kwargs: dict
    future: AppFuture
    retries: int
    timeout_s: float | None = None
    pending: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    span: Span | None = None       # task-lifecycle span (tracing enabled)
    wait_span: Span | None = None  # submit -> dependencies-resolved
    attempt_token: int = 0         # bumped to orphan a timed-out attempt
    history: list[str] = field(default_factory=list)
    watchdog: threading.Timer | None = None


def _iter_futures(args: tuple, kwargs: dict):
    """Yield futures found at top level or one level inside list/tuple
    arguments (the containers app code actually passes)."""
    def scan(value):
        if isinstance(value, Future):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Future):
                    yield item

    for arg in args:
        yield from scan(arg)
    for value in kwargs.values():
        yield from scan(value)


def _substitute(value):
    if isinstance(value, Future):
        return value.result()
    if isinstance(value, list):
        return [_substitute(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_substitute(v) for v in value)
    return value


class DataFlowKernel:
    """Submit-side engine tying futures, executors, and memoization."""

    def __init__(
        self,
        executor: ExecutorBase | None = None,
        *,
        memoize: bool = False,
        checkpoint_path: str | None = None,
        retries: int = 0,
        retry_policy: RetryPolicy | None = None,
        retry_budget: RetryBudget | int | None = None,
        task_timeout_s: float | None = None,
        tracer: Tracer | None = None,
    ):
        if retries < 0:
            raise WorkflowError(f"retries must be >= 0, got {retries}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise WorkflowError(
                f"task_timeout_s must be positive, got {task_timeout_s}"
            )
        self.executor = executor if executor is not None else ThreadExecutor()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.default_retries = retries
        self.retry_policy = retry_policy
        if isinstance(retry_budget, int):
            retry_budget = RetryBudget(retry_budget)
        self.retry_budget = retry_budget
        self.default_timeout_s = task_timeout_s
        self.memoizer = Memoizer() if (memoize or checkpoint_path) else None
        self.checkpoint_path = checkpoint_path
        if checkpoint_path:
            self.memoizer.load(load_checkpoint(checkpoint_path))
        self._lock = threading.Lock()
        self._task_counter = 0
        self._closed = False
        # counters
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.tasks_memoized = 0
        self.tasks_cancelled = 0
        self.tasks_timed_out = 0

    # -- submission ---------------------------------------------------------------
    def submit(self, fn, *args, retries: int | None = None,
               timeout_s: float | None = None, **kwargs) -> AppFuture:
        """Schedule ``fn(*args, **kwargs)``; returns its future now.

        ``timeout_s`` bounds each execution attempt (falling back to the
        kernel-wide ``task_timeout_s``); an attempt that overruns is
        abandoned and retried, and its late result is discarded.
        """
        if self._closed:
            raise WorkflowError("submit on a shut-down DataFlowKernel")
        if not callable(fn):
            raise WorkflowError(f"submit needs a callable, got {type(fn).__name__}")
        if timeout_s is not None and timeout_s <= 0:
            raise WorkflowError(f"timeout_s must be positive, got {timeout_s}")
        with self._lock:
            task_id = self._task_counter
            self._task_counter += 1
            self.tasks_submitted += 1
        future = AppFuture(task_id, getattr(fn, "__name__", repr(fn)))
        record = _TaskRecord(
            fn=fn, args=args, kwargs=kwargs, future=future,
            retries=self.default_retries if retries is None else retries,
            timeout_s=self.default_timeout_s if timeout_s is None else timeout_s,
        )
        deps = list({id(f): f for f in _iter_futures(args, kwargs)}.values())
        record.pending = len(deps)
        if self.tracer.enabled:
            record.span = self.tracer.begin(
                f"task:{future.func_name}#{task_id}", "dftask",
                task_id=task_id, deps=len(deps),
            )
            record.wait_span = self.tracer.begin(
                "wait-deps", "queue", parent=record.span,
            )
        if not deps:
            self._launch(record)
        else:
            for dep in deps:
                dep.add_done_callback(lambda _f, r=record: self._dep_done(r))
        return future

    def app(self, fn=None, *, retries: int | None = None):
        """Decorator turning a function into a submitting app::

            @dfk.app()
            def double(x): return 2 * x
            future = double(21)
        """
        def wrap(func):
            def submitting(*args, **kwargs):
                return self.submit(func, *args, retries=retries, **kwargs)

            submitting.__name__ = getattr(func, "__name__", "app")
            submitting.__wrapped__ = func
            return submitting

        return wrap if fn is None else wrap(fn)

    # -- dependency handling --------------------------------------------------------
    def _dep_done(self, record: _TaskRecord) -> None:
        with record.lock:
            record.pending -= 1
            ready = record.pending == 0
        if ready:
            self._launch(record)

    def _launch(self, record: _TaskRecord) -> None:
        self.tracer.end(record.wait_span)
        record.wait_span = None
        if record.future.cancelled():
            # cancelled before start: never runs, never memoizes
            with self._lock:
                self.tasks_cancelled += 1
            self.tracer.end(record.span, status="cancelled")
            return
        try:
            args = tuple(_substitute(a) for a in record.args)
            kwargs = {k: _substitute(v) for k, v in record.kwargs.items()}
        except BaseException as exc:  # a dependency failed
            self._fail(record, TaskFailedError(record.future.func_name, exc))
            return

        key = None
        if self.memoizer is not None:
            key = make_key(record.future.func_name, args, kwargs)
            found, value = self.memoizer.lookup(key)
            if found:
                record.future.from_memo = True
                with self._lock:
                    self.tasks_memoized += 1
                    self.tasks_completed += 1
                self.tracer.instant("memo-hit", "dftask", parent=record.span)
                self.tracer.end(record.span, status="ok", memoized=True)
                record.future.set_result(value)
                return
        self._execute(record, args, kwargs, key)

    def _execute(self, record: _TaskRecord, args, kwargs, key) -> None:
        if record.future.cancelled():
            with self._lock:
                self.tasks_cancelled += 1
            self.tracer.end(record.span, status="cancelled")
            return
        if self._closed:
            self._fail(record, WorkflowError(
                f"kernel shut down while task {record.future.func_name!r} "
                f"awaited a retry"
            ))
            return
        record.future.tries += 1
        with record.lock:
            token = record.attempt_token
        run_span = self.tracer.begin("run", "run", parent=record.span,
                                     attempt=record.future.tries)
        if record.timeout_s is not None:
            record.watchdog = threading.Timer(
                record.timeout_s, self._attempt_timeout,
                args=(record, token, args, kwargs, key, run_span),
            )
            record.watchdog.daemon = True
            record.watchdog.start()
        exec_future = self.executor.submit(record.fn, *args, **kwargs)
        exec_future.add_done_callback(
            lambda f: self._exec_done(record, args, kwargs, key, f,
                                      run_span, token)
        )

    def _attempt_timeout(self, record: _TaskRecord, token: int,
                         args, kwargs, key, run_span) -> None:
        """Watchdog fired: abandon the attempt and invalidate its token
        so a late result can never be delivered or memoized."""
        with record.lock:
            if record.attempt_token != token or record.future.done():
                return
            record.attempt_token += 1
        with self._lock:
            self.tasks_timed_out += 1
        attempt = record.future.tries
        record.history.append(
            f"attempt {attempt} timed out after {record.timeout_s}s"
        )
        self.tracer.end(run_span, status="timeout",
                        timeout_s=record.timeout_s)
        if attempt <= record.retries:
            self._retry(record, args, kwargs, key)
        else:
            self._fail(record, WorkflowError(
                f"task {record.future.func_name!r} timed out on all "
                f"{attempt} attempts ({'; '.join(record.history)})"
            ))

    def _exec_done(self, record: _TaskRecord, args, kwargs, key,
                   exec_future: Future, run_span=None, token: int = 0) -> None:
        with record.lock:
            stale = record.attempt_token != token
            if not stale:
                # the attempt beat its watchdog; disarm it
                if record.watchdog is not None:
                    record.watchdog.cancel()
                    record.watchdog = None
        if stale:
            # a timed-out attempt finishing late: the watchdog already
            # retried (or failed) the task — drop this result entirely,
            # and in particular never memoize it
            return
        if record.future.cancelled():
            with self._lock:
                self.tasks_cancelled += 1
            self.tracer.end(run_span, status="cancelled")
            self.tracer.end(record.span, status="cancelled")
            return
        exc = exec_future.exception()
        if exc is None:
            self.tracer.end(run_span)
            value = exec_future.result()
            if self.memoizer is not None:
                self.memoizer.store(key, value)
            with self._lock:
                self.tasks_completed += 1
            self.tracer.end(record.span, tries=record.future.tries)
            try:
                record.future.set_result(value)
            except InvalidStateError:   # cancelled in the final window
                pass
        elif record.future.tries <= record.retries:
            self.tracer.end(run_span, status="failed", error=repr(exc))
            record.history.append(
                f"attempt {record.future.tries} failed: {exc!r}"
            )
            self._retry(record, args, kwargs, key)
        else:
            self.tracer.end(run_span, status="failed", error=repr(exc))
            record.history.append(
                f"attempt {record.future.tries} failed: {exc!r}"
            )
            self._fail(record, exc)

    def _retry(self, record: _TaskRecord, args, kwargs, key) -> None:
        """Re-execute after a failed or timed-out attempt, paced by the
        retry policy's backoff and the run-wide budget when configured."""
        delay = 0.0
        if self.retry_policy is not None:
            delay = self.retry_policy.delay_s(
                record.future.tries,
                key=f"{record.future.func_name}#{record.future.task_id}",
            )
        if self.retry_budget is not None and not self.retry_budget.acquire():
            delay = max(delay, self.retry_budget.cooldown_s)
        if delay > 0:
            self.tracer.instant("retry-backoff", "dftask",
                                parent=record.span, delay_s=delay)
            timer = threading.Timer(
                delay, self._execute, args=(record, args, kwargs, key)
            )
            timer.daemon = True
            timer.start()
        else:
            self._execute(record, args, kwargs, key)

    def _fail(self, record: _TaskRecord, exc: BaseException) -> None:
        with self._lock:
            self.tasks_failed += 1
        self.tracer.end(record.span, status="failed", error=repr(exc))
        try:
            record.future.set_exception(exc)
        except InvalidStateError:       # cancelled in the final window
            pass

    # -- lifecycle -----------------------------------------------------------------
    def wait_all(self, futures, timeout: float | None = None) -> list:
        """Block for all futures; returns their results in order.
        Raises the first failure encountered."""
        return [f.result(timeout=timeout) for f in futures]

    def checkpoint(self) -> None:
        """Persist the memo table (no-op without a checkpoint path)."""
        if self.checkpoint_path is None:
            raise WorkflowError("kernel was created without checkpoint_path")
        save_checkpoint(self.checkpoint_path, self.memoizer.export())

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self.executor.shutdown(wait=wait)

    def __enter__(self) -> "DataFlowKernel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
