"""JArmus-supported ``java.util.concurrent`` barrier classes.

JArmus verifies ``CountDownLatch``, ``CyclicBarrier`` and ``Phaser``
(Section 5.3).  Java leaves the participants of these barriers implicit
— "the programmer declares the number of participants and then shares
the object" — so JArmus requires each task to announce its participation
with ``JArmus.register(b)``.  This module mirrors that design: tasks
call :meth:`CyclicBarrier.register` (or are registered at spawn) before
synchronising, and :meth:`CountDownLatch.register` declares the intent
to count down.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.core.events import Event
from repro.runtime.observer import WaitSpec, blocked_status, notify_waiters, verified_wait
from repro.runtime.phaser import PhaserMembershipError
from repro.runtime.tasks import Task
from repro.runtime.verifier import ArmusRuntime, get_default_runtime


class BrokenBarrierError(RuntimeError):
    """A barrier was used inconsistently with its declared parties."""


class CyclicBarrier:
    """A fixed-parties cyclic barrier (also X10's ``SPMDBarrier``).

    Semantics follow ``java.util.concurrent.CyclicBarrier``: the barrier
    trips when ``parties`` arrivals accumulate, then resets for the next
    *generation*.  Verification bookkeeping is the event mapping of
    Section 4.1 applied to generations: generation ``g``'s trip is the
    event ``(barrier, g+1)``; a registered task that has completed ``k``
    trips has local phase ``k`` and impedes every later trip event.
    """

    def __init__(
        self,
        parties: int,
        runtime: Optional[ArmusRuntime] = None,
        name: Optional[str] = None,
    ) -> None:
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.parties = parties
        self.runtime = runtime if runtime is not None else get_default_runtime()
        self._rid = self.runtime.new_resource_id(name or "barrier")
        self._cond = threading.Condition()
        self._generation = 0
        self._arrived = 0
        # Verification only: declared participants and their trip counts.
        self._trips: Dict[Task, int] = {}

    # -- participation annotations (JArmus.register) ------------------------
    def register(self, task: Optional[Task] = None) -> None:
        """Announce participation (the JArmus.register annotation)."""
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            if task in self._trips:
                raise PhaserMembershipError(
                    f"{task.name} already registered with {self._rid}"
                )
            if len(self._trips) >= self.parties:
                raise BrokenBarrierError(
                    f"barrier already has {self.parties} registered parties"
                )
            self._trips[task] = self._generation
            task._add_registration(self)

    def register_child(self, child: Task, parent: Optional[Task] = None) -> None:
        """Register a not-yet-started task (spawn-time registration)."""
        if child.started:
            raise PhaserMembershipError(
                f"register_child({child.name}) after the task started"
            )
        with self._cond:
            if len(self._trips) >= self.parties:
                raise BrokenBarrierError(
                    f"barrier already has {self.parties} registered parties"
                )
            self._trips[child] = self._generation
            child._add_registration(self)

    def deregister(self, task: Optional[Task] = None) -> None:
        """Withdraw the participation annotation."""
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            self._trips.pop(task, None)
            task._remove_registration(self)

    @property
    def registered_parties(self) -> int:
        with self._cond:
            return len(self._trips)

    # -- synchronisation -----------------------------------------------------
    def await_barrier(self) -> int:
        """Block until all ``parties`` tasks arrive (Java ``await()``).

        Returns the generation tripped.  The last arriver trips the
        barrier and releases everyone; the barrier then resets (cyclic).
        """
        my_generation, spec = self._arrive_begin()
        if spec is not None:
            verified_wait(spec)
        return my_generation

    def _arrive_begin(self):
        """Count the arrival; returns ``(generation, spec)`` where
        ``spec`` is the wait for the trip (``None`` when this arrival
        tripped the barrier itself)."""
        task = self.runtime.current_task()
        with self._cond:
            my_generation = self._generation
            self._arrived += 1
            if task in self._trips:
                self._trips[task] = my_generation + 1
            if self._arrived == self.parties:
                self._arrived = 0
                self._generation += 1
                notify_waiters(self._cond)
                return my_generation, None

        def ready() -> bool:
            return self._generation > my_generation

        def status():
            return blocked_status(task, Event(self._rid, my_generation + 1))

        return my_generation, WaitSpec(self._cond, ready, task, status)

    # -- observer protocol ------------------------------------------------------
    def _phase_of(self, task: Task) -> Optional[int]:
        with self._cond:
            return self._trips.get(task)

    def _leave_on_termination(self, task: Task) -> None:
        """A terminated party can no longer arrive.  Its absence is
        starvation (Java would eventually break the barrier), not a
        circular wait, so it simply leaves the verification maps."""
        with self._cond:
            self._trips.pop(task, None)

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"<CyclicBarrier {self._rid} parties={self.parties} "
                f"generation={self._generation} arrived={self._arrived}>"
            )


class CountDownLatch:
    """A one-shot latch: ``count_down()`` is non-blocking, ``await_latch``
    blocks until the count reaches zero.

    Verification view: the latch release is the single event
    ``(latch, 1)``.  Tasks that :meth:`register` owe a count-down and
    impede the event (local phase 0) until they have counted down at
    least once (phase 1).  Awaiting tasks wait on the event without
    membership — dynamic membership in its simplest form.
    """

    def __init__(
        self,
        count: int,
        runtime: Optional[ArmusRuntime] = None,
        name: Optional[str] = None,
    ) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.runtime = runtime if runtime is not None else get_default_runtime()
        self._rid = self.runtime.new_resource_id(name or "latch")
        self._cond = threading.Condition()
        self._count = count
        self._obligations: Dict[Task, int] = {}  # task -> 0 (owes) or 1 (done)

    # -- verification annotations -----------------------------------------
    def register(self, task: Optional[Task] = None) -> None:
        """Declare that ``task`` will count this latch down."""
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            if task in self._obligations:
                raise PhaserMembershipError(
                    f"{task.name} already registered with {self._rid}"
                )
            self._obligations[task] = 0
            task._add_registration(self)

    def register_child(self, child: Task, parent: Optional[Task] = None) -> None:
        if child.started:
            raise PhaserMembershipError(
                f"register_child({child.name}) after the task started"
            )
        with self._cond:
            self._obligations[child] = 0
            child._add_registration(self)

    # -- latch API ---------------------------------------------------------
    @property
    def count(self) -> int:
        with self._cond:
            return self._count

    def count_down(self) -> None:
        """Decrement the count; never blocks (Java ``countDown()``)."""
        task = self.runtime.current_task()
        with self._cond:
            if self._count > 0:
                self._count -= 1
            if task in self._obligations:
                self._obligations[task] = 1
            if self._count == 0:
                notify_waiters(self._cond)

    def await_latch(self) -> None:
        """Block until the count reaches zero (Java ``await()``)."""
        verified_wait(self._await_spec())

    def _await_spec(self) -> WaitSpec:
        task = self.runtime.current_task()

        def ready() -> bool:
            return self._count == 0

        def status():
            return blocked_status(task, Event(self._rid, 1))

        return WaitSpec(self._cond, ready, task, status)

    # -- observer protocol ----------------------------------------------------
    def _phase_of(self, task: Task) -> Optional[int]:
        with self._cond:
            return self._obligations.get(task)

    def _leave_on_termination(self, task: Task) -> None:
        """A terminated task can no longer count down: treat its
        obligation as discharged so survivors' analyses do not blame it
        (its missing count-down is starvation, not circular wait)."""
        with self._cond:
            self._obligations.pop(task, None)

    def __repr__(self) -> str:
        with self._cond:
            return f"<CountDownLatch {self._rid} count={self._count}>"
