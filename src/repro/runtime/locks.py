"""Reentrant locks folded into the event-based analysis.

JArmus instruments ``ReentrantLock`` "without annotations"
(Section 5.3): lock acquisition order deadlocks and mixed lock/barrier
deadlocks fall out of the same graph analysis.  The event mapping treats
each lock as a logical clock of *release events*: the ``k``-th release is
the event ``(lock, k+1)``.

* A holder that acquired during epoch ``k`` is "registered at phase
  ``k``": it impedes the release event ``(lock, k+1)`` until it lets go.
* A blocked acquirer waits on ``(lock, k+1)``.

A waits-for chain of locks, or a lock held across a barrier wait, thus
shows up as an ordinary cycle in the WFG/SG.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.events import Event
from repro.runtime.observer import WaitSpec, blocked_status, notify_waiters, verified_wait
from repro.runtime.tasks import Task
from repro.runtime.verifier import ArmusRuntime, get_default_runtime


class ArmusLock:
    """A verified reentrant lock."""

    def __init__(
        self,
        runtime: Optional[ArmusRuntime] = None,
        name: Optional[str] = None,
    ) -> None:
        self.runtime = runtime if runtime is not None else get_default_runtime()
        self._rid = self.runtime.new_resource_id(name or "lock")
        self._cond = threading.Condition()
        self._owner: Optional[Task] = None
        self._depth = 0
        self._epoch = 0  # number of completed hold periods (releases)

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Take the lock, blocking (with verification) while held by
        another task.  Reentrant for the owner."""
        while True:
            spec = self._acquire_attempt()
            if spec is None:
                return
            # Nothing to deregister on avoidance: the waiter holds no new
            # resource yet.  Another task may win the wake-up race, hence
            # the retry loop.
            verified_wait(spec)

    def _acquire_attempt(self, task: Optional[Task] = None) -> Optional[WaitSpec]:
        """Try to take the lock; returns ``None`` on success or the wait
        for the current holder's release event."""
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            if self._owner is task:
                self._depth += 1
                return None
            if self._owner is None:
                self._take(task)
                return None
            wait_event = Event(self._rid, self._epoch + 1)

        def ready() -> bool:
            return self._owner is None or self._owner is task

        def status(event=wait_event):
            return blocked_status(task, event)

        return WaitSpec(self._cond, ready, task, status)

    def _take(self, task: Task) -> None:
        self._owner = task
        self._depth = 1
        task._add_registration(self)

    def release(self) -> None:
        task = self.runtime.current_task()
        with self._cond:
            if self._owner is not task:
                raise RuntimeError(f"{task.name} does not hold {self._rid}")
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._epoch += 1
                task._remove_registration(self)
                notify_waiters(self._cond)

    def __enter__(self) -> "ArmusLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        with self._cond:
            return self._owner is not None

    # -- observer protocol ---------------------------------------------------
    def _phase_of(self, task: Task) -> Optional[int]:
        with self._cond:
            if self._owner is task:
                return self._epoch
            return None

    def _leave_on_termination(self, task: Task) -> None:
        with self._cond:
            if self._owner is task:  # leaked lock: release it
                self._owner = None
                self._depth = 0
                self._epoch += 1
                notify_waiters(self._cond)

    def __repr__(self) -> str:
        with self._cond:
            owner = self._owner.name if self._owner else None
            return f"<ArmusLock {self._rid} owner={owner} epoch={self._epoch}>"
