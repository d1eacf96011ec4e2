"""The task observer: instrumented blocking for every synchronizer.

This module is the one place where "a task blocks" meets "the verifier
learns about it" (the *task observer* component of JArmus/Armus-X10,
Section 5.3).  The design is deliberately transport-neutral: a
synchronizer expresses its wait as a :class:`WaitSpec` — a condition, a
predicate, the waiting task, a blocked-status factory and an optional
avoidance cleanup — and a *driver* weaves the verification in:

1. a fast path (no verification traffic when the wait would not block);
2. the avoidance check before blocking (raising instead of
   deadlocking) — :func:`begin_blocked`;
3. status publication for the detection monitor while blocked;
4. cancellation as a wake, so detected deadlocks abort the wait;
5. guaranteed status withdrawal on every exit path —
   :func:`end_blocked`.

Two drivers consume the same spec: :func:`verified_wait` here blocks a
*thread* on the spec's :class:`threading.Condition`, and
:func:`repro.aio.observer.averified_wait` parks an *asyncio task* on an
event-loop notifier.  Because both route through
:func:`begin_blocked`/:func:`end_blocked`, the verifier (and any
attached :class:`~repro.trace.recorder.TraceRecorder`) observes an
identical protocol whichever backend ran the task.

The blocked status is built *once*, at block entry: a blocked task cannot
arrive at, register with, or leave any synchronizer, so its local view is
immutable for the duration of the wait — the insight that makes per-task
consistency purely local (Section 2.1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.core.events import BlockedStatus, Event
from repro.core.report import DeadlockAvoidedError, DeadlockReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.tasks import Task


def registered_phases(task: "Task") -> Dict[str, int]:
    """The local half of the event-based representation for ``task``:
    ``resource id -> local phase`` over every synchronizer the task is a
    member of (phasers, clocks, finish blocks, latch obligations, held
    locks).

    Synchronizers with several resource sides (e.g. a bounded phaser's
    signal and wait clocks) implement ``_registrations_of`` and return
    the whole mapping; the common case implements ``_phase_of`` for the
    synchronizer's single ``_rid``.
    """
    phases: Dict[str, int] = {}
    for sync in task.registered_synchronizers():
        multi = getattr(sync, "_registrations_of", None)
        if multi is not None:
            phases.update(multi(task))
            continue
        phase = sync._phase_of(task)  # noqa: SLF001 - observer protocol
        if phase is not None:
            phases[sync._rid] = phase  # noqa: SLF001
    return phases


def blocked_status(task: "Task", *events: Event) -> BlockedStatus:
    """Assemble the :class:`BlockedStatus` for ``task`` waiting on
    ``events``."""
    return BlockedStatus(
        waits=frozenset(events), registered=registered_phases(task)
    )


@dataclass
class WaitSpec:
    """One instrumented wait, described transport-neutrally.

    Synchronizers build specs (their ``_*_spec`` methods); drivers
    consume them.  ``predicate`` must be cheap and is always evaluated
    with ``cond``'s lock held; ``status_factory`` runs once, at block
    entry.  ``on_avoided`` is the pre-raise cleanup of avoidance mode
    (synchronizers deregister the doomed task there, following the
    paper: "an exception is raised ... and the tasks become
    deregistered").  ``target`` carries the operation-specific result
    (e.g. the awaited phase) to the post-wait bookkeeping step.
    """

    cond: threading.Condition
    predicate: Callable[[], bool]
    task: "Task"
    status_factory: Callable[[], BlockedStatus]
    on_avoided: Optional[Callable[[DeadlockReport], None]] = None
    target: Optional[int] = None


#: Run after every synchronizer wakes its waiters; a backend whose
#: waiters do not sleep on the condition (repro.aio) installs one.
_wake_hooks: list = []


def register_wake_hook(hook: Callable[[], None]) -> None:
    """Install a wake hook (idempotent).  It runs under a synchronizer's
    condition: it must be cheap, thread-safe and never raise."""
    if hook not in _wake_hooks:
        _wake_hooks.append(hook)


def notify_waiters(cond: threading.Condition) -> None:
    """Wake the threads waiting on ``cond`` and, through the hooks, the
    parked coroutines; the caller holds ``cond``."""
    cond.notify_all()
    for hook in _wake_hooks:
        hook()


def begin_blocked(
    task: "Task",
    status_factory: Callable[[], BlockedStatus],
    on_avoided: Optional[Callable[[DeadlockReport], None]] = None,
) -> None:
    """Publish the about-to-block status through the **task's** runtime.

    Verification traffic goes through the task's runtime, not the
    synchronizer's: a distributed clock is shared across sites, and each
    site monitors its own tasks (Section 5.2's locality).  Raises
    :class:`DeadlockAvoidedError` when blocking would complete a
    deadlock (avoidance mode), after running ``on_avoided``.
    """
    status = status_factory()
    report = task.runtime.block_entry(task, status)
    if report is not None:
        if on_avoided is not None:
            on_avoided(report)
        raise DeadlockAvoidedError(report)


def end_blocked(task: "Task") -> None:
    """Withdraw the published status (success, error or abort alike)."""
    task.runtime.block_exit(task)


def verified_wait(spec: WaitSpec) -> None:
    """The thread driver: block on ``spec.cond`` until the predicate
    holds, with verification.  ``spec.cond`` must *not* be held by the
    caller.
    """
    task = spec.task
    # A task condemned by the detection monitor raises at its next
    # synchronisation point, even if the operation could proceed — this
    # keeps the outcome of a detected deadlock deterministic (all tasks
    # of the cycle observe the report, not just the unlucky ones).
    task.check_cancelled()
    with spec.cond:
        if spec.predicate():
            return
    begin_blocked(task, spec.status_factory, spec.on_avoided)
    # Set before the check below, so a cancel (flag, then notify) that
    # lands on either side of it wakes this wait.
    task._wait_cond = spec.cond
    try:
        with spec.cond:
            while True:
                task.check_cancelled()
                if spec.predicate():
                    return
                spec.cond.wait()
    finally:
        task._wait_cond = None
        end_blocked(task)
