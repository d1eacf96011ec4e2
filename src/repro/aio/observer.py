"""The async driver of the task-observer protocol.

:func:`averified_wait` is the coroutine twin of
:func:`repro.runtime.observer.verified_wait`: it consumes the same
:class:`~repro.runtime.observer.WaitSpec` a synchronizer built and runs
the same protocol — fast path, :func:`~repro.runtime.observer.begin_blocked`
(avoidance check + status publication), cancellation-aware waiting,
:func:`~repro.runtime.observer.end_blocked` on every exit path — so the
verifier and any attached recorder see byte-for-byte the same traffic
as a threaded run.

Only the *parking* differs: instead of ``cond.wait()`` the coroutine
parks on its loop's :class:`~repro.aio.notify.LoopNotifier`, woken by
adapter mutations, progress made on other threads, cancellation and
task teardown — never by a timer.  The spec's condition lock is still
taken around every predicate evaluation — predicates are written to run
under it — but never held across an ``await``.
"""

from __future__ import annotations

from repro.aio.notify import notifier_for
from repro.core.report import DeadlockAvoidedError
from repro.runtime.observer import WaitSpec, begin_blocked, end_blocked


async def averified_wait(spec: WaitSpec) -> None:
    """Park until ``spec.predicate()`` holds, with verification.

    Must run inside an event loop; the calling coroutine's
    :class:`~repro.aio.tasks.AioTask` is ``spec.task``.
    """
    task = spec.task
    notifier = notifier_for()
    task.check_cancelled()
    with spec.cond:
        if spec.predicate():
            return
    try:
        begin_blocked(task, spec.status_factory, spec.on_avoided)
    except DeadlockAvoidedError:
        # on_avoided deregistered the doomed task, which may have
        # completed events other parked tasks wait on; its wake skipped
        # the running loop, so wake this loop's waits too.
        notifier.wake_local()
        raise
    try:
        while True:
            task.check_cancelled()
            with spec.cond:
                if spec.predicate():
                    return
                woken = notifier.park()  # under the lock wake hooks run in
            await woken
    finally:
        end_blocked(task)
