"""The real-execution dataflow kernel.

:class:`DataFlowKernel` runs Python callables with Parsl semantics:

- ``submit(fn, *args)`` returns an :class:`AppFuture` immediately,
- any :class:`~concurrent.futures.Future` among the arguments is an
  implicit dependency; the task launches when all resolve, with the
  future values substituted in place,
- failed dependencies fail dependents with :class:`TaskFailedError`,
- retries: a failed attempt re-executes at once, up to ``retries``
  times (kernel-wide, or per submit),
- per-submit attempt timeouts: a watchdog abandons an attempt that
  overruns ``timeout_s``, retries it, and guarantees the late result is
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
    ):
        if retries < 0:
            raise WorkflowError(f"retries must be >= 0, got {retries}")
        self.executor = executor if executor is not None else ThreadExecutor()
        self.default_retries = retries
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

        ``timeout_s`` bounds each execution attempt; an attempt that
        overruns is abandoned and retried, and its late result is
        discarded.
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
            timeout_s=timeout_s,
        )
        deps = list({id(f): f for f in _iter_futures(args, kwargs)}.values())
        record.pending = len(deps)
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
        if record.future.cancelled():
            # cancelled before start: never runs, never memoizes
            with self._lock:
                self.tasks_cancelled += 1
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
                record.future.set_result(value)
                return
        self._execute(record, args, kwargs, key)

    def _execute(self, record: _TaskRecord, args, kwargs, key) -> None:
        if record.future.cancelled():
            with self._lock:
                self.tasks_cancelled += 1
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
        if record.timeout_s is not None:
            record.watchdog = threading.Timer(
                record.timeout_s, self._attempt_timeout,
                args=(record, token, args, kwargs, key),
            )
            record.watchdog.daemon = True
            record.watchdog.start()
        exec_future = self.executor.submit(record.fn, *args, **kwargs)
        exec_future.add_done_callback(
            lambda f: self._exec_done(record, args, kwargs, key, f, token)
        )

    def _attempt_timeout(self, record: _TaskRecord, token: int,
                         args, kwargs, key) -> None:
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
        if attempt <= record.retries:
            self._execute(record, args, kwargs, key)
        else:
            self._fail(record, WorkflowError(
                f"task {record.future.func_name!r} timed out on all "
                f"{attempt} attempts ({'; '.join(record.history)})"
            ))

    def _exec_done(self, record: _TaskRecord, args, kwargs, key,
                   exec_future: Future, token: int) -> None:
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
            return
        exc = exec_future.exception()
        if exc is None:
            value = exec_future.result()
            if self.memoizer is not None:
                self.memoizer.store(key, value)
            with self._lock:
                self.tasks_completed += 1
            try:
                record.future.set_result(value)
            except InvalidStateError:   # cancelled in the final window
                pass
        else:
            record.history.append(
                f"attempt {record.future.tries} failed: {exc!r}"
            )
            if record.future.tries <= record.retries:
                self._execute(record, args, kwargs, key)
            else:
                self._fail(record, exc)

    def _fail(self, record: _TaskRecord, exc: BaseException) -> None:
        with self._lock:
            self.tasks_failed += 1
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
