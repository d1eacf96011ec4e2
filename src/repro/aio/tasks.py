"""Verified asyncio tasks: the event-loop unit of concurrency.

An :class:`AioTask` is a :class:`~repro.runtime.tasks.Task` whose body
is a coroutine instead of a thread — same identity in reports, same
registration bookkeeping, same cancellation flag, same
terminate-and-deregister teardown.  The whole runtime layer (verifier
hooks, synchronizer membership, trace recording) operates on the shared
``Task`` surface and cannot tell the backends apart.

What differs is *resolution*: every asyncio task of a runtime shares
one thread, so the thread-ident map cannot answer "which task is
calling?".  Importing this module installs a task resolver
(:func:`repro.runtime.tasks.register_task_resolver`) that binds
:func:`asyncio.current_task` to its :class:`AioTask`, letting
``runtime.current_task()`` — and through it every synchronizer —
resolve coroutine callers transparently.
"""

from __future__ import annotations

import asyncio
import weakref
from typing import Any, Callable, Iterable, Optional

from repro.aio.notify import LoopNotifier, notifier_for
from repro.core.report import DeadlockReport
from repro.runtime.tasks import Task, register_task_resolver
from repro.runtime.verifier import ArmusRuntime, get_default_runtime

#: asyncio.Task -> AioTask binding for the context resolver.
_bound: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Raise-free running-loop probe (C accelerated, returns None outside a
#: loop).  The resolver runs on *every* current_task() call once this
#: module is imported — including the thread backend's hot path — so
#: the no-loop case must not pay for a raised-and-caught RuntimeError.
_running_loop = getattr(asyncio, "_get_running_loop", None)


def _resolve_current() -> Optional["AioTask"]:
    """The resolver: the AioTask of the running coroutine, if any."""
    if _running_loop is not None and _running_loop() is None:
        return None
    try:
        current = asyncio.current_task()
    except RuntimeError:  # no running loop in this thread
        return None
    if current is None:
        return None
    return _bound.get(current)


register_task_resolver(_resolve_current)


class AioTask(Task):
    """A runtime task backed by an asyncio coroutine.

    Created through :func:`aio_spawn`; user code ``await``\\ s
    :meth:`wait` (or calls the inherited, thread-blocking :meth:`join`
    from *another* thread).
    """

    def __init__(self, runtime: ArmusRuntime, name: Optional[str] = None) -> None:
        super().__init__(runtime, name=name)
        # Not a foreign adopted thread: a spawned task with a body, just
        # not a threaded one.
        self.is_adopted = False
        self._aio_task: Optional[asyncio.Task] = None
        self._notifier: Optional[LoopNotifier] = None

    def start(self) -> "Task":
        raise RuntimeError("AioTasks are started by aio_spawn")

    def cancel(self, report: DeadlockReport) -> None:
        """Condemn the task *and* wake its loop's parked waits, so the
        report is observed now."""
        super().cancel(report)
        if self._notifier is not None:
            self._notifier.wake()

    async def wait(self, timeout: Optional[float] = None) -> Any:
        """Await completion; the async :meth:`~Task.join`.

        Deadlock errors raised inside the task propagate as-is; other
        failures are wrapped in
        :class:`~repro.runtime.tasks.TaskFailedError`.
        """
        assert self._aio_task is not None, "task was never spawned"
        try:
            await asyncio.wait_for(asyncio.shield(self._aio_task), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(f"task {self.name} still running") from None
        return self._resolve_join()


async def _run_aio(task: AioTask, fn, args, kwargs) -> None:
    """The coroutine runner: the async twin of ``Task._run``."""
    try:
        task.result = await fn(*args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - reported via wait/join
        task.exception = exc
    finally:
        try:
            # Terminate-and-deregister (X10/HJ): leaving synchronizers
            # can complete events siblings wait on — wake them.
            task._teardown()
        finally:
            task._done.set()
            if task._notifier is not None:
                task._notifier.wake_local()


def aio_spawn(
    fn: Callable[..., Any],
    *args: Any,
    runtime: Optional[ArmusRuntime] = None,
    name: Optional[str] = None,
    register: Iterable[object] = (),
    **kwargs: Any,
) -> AioTask:
    """Create and start a verified asyncio task (the async
    ``runtime.spawn``); must be called from a running event loop.

    ``register`` accepts the same synchronizer handles as
    :meth:`~repro.runtime.verifier.ArmusRuntime.spawn` (sync objects,
    their async adapters, modal registrars): registration happens
    *before* the coroutine is scheduled, inheriting the spawning task's
    phase — a child can never miss the phase it was spawned in
    (Section 2.2's registration race).
    """
    loop = asyncio.get_running_loop()
    if runtime is None:
        runtime = get_default_runtime()
    task = AioTask(runtime, name=name)
    runtime.adopt_spawn_context(task, runtime.current_task(), register)
    task._started = True
    task._notifier = notifier_for(loop)
    task._aio_task = loop.create_task(
        _run_aio(task, fn, args, kwargs), name=task.name
    )
    # Bind before the coroutine first runs (create_task only schedules
    # it), so current_task() resolves from its very first statement.
    _bound[task._aio_task] = task
    return task
