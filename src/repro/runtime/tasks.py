"""Cancellable tasks: the runtime's unit of concurrency.

A :class:`Task` wraps a thread with the machinery verification needs:

* an identity the checker can reference in reports;
* the set of synchronizers the task is registered with (the *resource
  mapper* input: the local half of the event-based representation);
* a cancellation flag checked by every instrumented blocking operation,
  so that the detection monitor can abort deadlocked tasks — the Python
  analogue of the paper's deadlock reporting (a real deadlock would
  otherwise hang the process, and the test-suite, forever);
* automatic deregistration from all synchronizers on termination — the
  X10/HJ semantics that prevents terminated-but-registered members from
  starving the survivors (Section 7, "Deadlock avoidance").
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.core.report import DeadlockDetectedError, DeadlockError, DeadlockReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.verifier import ArmusRuntime


class TaskFailedError(RuntimeError):
    """Raised by :meth:`Task.join` when the task body raised."""

    def __init__(self, task: "Task", cause: BaseException):
        super().__init__(f"task {task.name} failed: {cause!r}")
        self.task = task
        self.cause = cause


# Process-global task identity.  Tasks of *different* runtimes (the
# distributed sites of repro.distributed) share synchronizers, so both
# the thread->task binding and the id->task directory must be global.
_registry_lock = threading.Lock()
_by_ident: Dict[int, "Task"] = {}
_by_task_id: Dict[str, "Task"] = {}

# Context resolvers consulted by current_task() *before* the
# thread-ident map.  A backend whose unit of concurrency is finer than
# a thread (repro.aio binds tasks to asyncio coroutines, all sharing
# the event-loop thread) installs one; with none installed, resolution
# is purely thread-based, as before.
_task_resolvers: list = []


def register_task_resolver(resolver: Callable[[], Optional["Task"]]) -> None:
    """Install a calling-context resolver (idempotent).

    ``resolver()`` must be cheap, must never raise, and returns the
    :class:`Task` of the calling context or ``None`` to fall through to
    thread-ident lookup.
    """
    if resolver not in _task_resolvers:
        _task_resolvers.append(resolver)


def _bind(ident: int, task: "Task") -> None:
    with _registry_lock:
        _by_ident[ident] = task


def _unbind(ident: int, task: "Task") -> None:
    with _registry_lock:
        if _by_ident.get(ident) is task:
            del _by_ident[ident]


def _lookup_ident(ident: int) -> Optional["Task"]:
    with _registry_lock:
        return _by_ident.get(ident)


def lookup_task(task_id: str) -> Optional["Task"]:
    """Find a task by id anywhere in the process (any runtime/site)."""
    with _registry_lock:
        return _by_task_id.get(task_id)


class Task:
    """A runtime task (thread) known to the verifier.

    Tasks are created through :meth:`ArmusRuntime.spawn` (or adopted from
    foreign threads by :func:`current_task`); user code normally only
    ``join``\\ s them.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(
        self,
        runtime: "ArmusRuntime",
        fn: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        name: Optional[str] = None,
    ) -> None:
        with Task._counter_lock:
            Task._counter += 1
            seq = Task._counter
        self.task_id = f"T{seq}"
        self.name = name or self.task_id
        with _registry_lock:
            _by_task_id[self.task_id] = self
        self.runtime = runtime
        #: Adopted tasks (foreign threads) have no body; unlike spawned
        #: tasks they re-home to whichever runtime they interact with.
        self.is_adopted = fn is None
        self._fn = fn
        self._args = args
        self._kwargs = kwargs or {}
        # Synchronizers this task is a member of (the resource-mapper
        # input); maintained by the synchronizers themselves.
        self._registered_lock = threading.Lock()
        self._registered: Dict[object, None] = {}
        # Cancellation (deadlock abort) machinery.
        self._cancelled = threading.Event()
        self._cancel_report: Optional[DeadlockReport] = None
        self._wait_cond: Optional[threading.Condition] = None  # cancel wakes it
        # Completion.
        self._done = threading.Event()
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False

    # -- registration bookkeeping (called by synchronizers) ----------------
    def _add_registration(self, sync: object) -> None:
        with self._registered_lock:
            self._registered[sync] = None

    def _remove_registration(self, sync: object) -> None:
        with self._registered_lock:
            self._registered.pop(sync, None)

    def registered_synchronizers(self) -> list:
        with self._registered_lock:
            return list(self._registered)

    # -- cancellation ---------------------------------------------------------
    def cancel(self, report: DeadlockReport) -> None:
        """Mark the task for abortion and wake its verified wait, which
        then raises; any thread may call this."""
        self._cancel_report = report
        self._cancelled.set()
        cond = self._wait_cond
        if cond is not None:
            with cond:
                cond.notify_all()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def check_cancelled(self) -> None:
        """Raise :class:`DeadlockDetectedError` if the task was cancelled.

        Delivery is one-shot: the flag clears as the error is raised, so a
        task (typically the adopted main thread) that catches the report
        can keep using the runtime afterwards.
        """
        if self._cancelled.is_set():
            report = self._cancel_report
            assert report is not None
            self._cancelled.clear()
            self._cancel_report = None
            raise DeadlockDetectedError(report)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "Task":
        if self._fn is None:
            raise RuntimeError("cannot start an adopted task")
        if self._started:
            raise RuntimeError(f"task {self.name} already started")
        self._started = True
        self._thread = threading.Thread(
            target=self._run, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    @property
    def started(self) -> bool:
        return self._started

    def _run(self) -> None:
        ident = threading.get_ident()
        _bind(ident, self)
        try:
            self.result = self._fn(*self._args, **self._kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported via join
            self.exception = exc
        finally:
            try:
                self._teardown()
            finally:
                _unbind(ident, self)
                self._done.set()

    def _teardown(self) -> None:
        """Leave every synchronizer (X10/HJ terminate-and-deregister)."""
        for sync in self.registered_synchronizers():
            leave = getattr(sync, "_leave_on_termination", None)
            if leave is not None:
                try:
                    leave(self)
                except Exception:  # pragma: no cover - best effort
                    pass
        # Whatever happened, this task is no longer blocked.
        self.runtime.checker.clear(self.task_id)

    def join(self, timeout: Optional[float] = None) -> Any:
        """Wait for completion; re-raise the task's failure, if any.

        Deadlock errors raised inside the task propagate as-is (they are
        the verification outcome the caller wants to observe); other
        failures are wrapped in :class:`TaskFailedError`.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"task {self.name} still running")
        return self._resolve_join()

    def _resolve_join(self) -> Any:
        """The join outcome of a finished task (shared with async joins)."""
        if self.exception is not None:
            if isinstance(self.exception, DeadlockError):
                raise self.exception
            raise TaskFailedError(self, self.exception) from self.exception
        return self.result

    def done(self) -> bool:
        return self._done.is_set()

    def __repr__(self) -> str:
        state = "done" if self.done() else ("running" if self._started else "new")
        return f"<Task {self.name} ({state})>"


def current_task(adopting_runtime: Optional["ArmusRuntime"] = None) -> Task:
    """The :class:`Task` of the calling thread.

    Foreign threads (e.g. the main thread, pytest workers) are adopted on
    first use — into ``adopting_runtime`` when given, else the default
    runtime — mirroring how JArmus treats the JVM main thread.
    """
    for resolver in _task_resolvers:
        task = resolver()
        if task is not None:
            return task
    ident = threading.get_ident()
    task = _lookup_ident(ident)
    if task is not None:
        # An adopted task follows usage: when the main thread starts
        # working with a fresh runtime (each test/benchmark builds its
        # own), its verification traffic must flow there, not to the
        # runtime that first adopted it.
        if (
            task.is_adopted
            and adopting_runtime is not None
            and task.runtime is not adopting_runtime
        ):
            task.runtime = adopting_runtime
        return task
    if adopting_runtime is None:
        from repro.runtime.verifier import get_default_runtime

        adopting_runtime = get_default_runtime()
    task = Task(adopting_runtime, name=f"adopted-{ident}")
    task._started = True
    _bind(ident, task)
    return task
