"""The runtime Phaser: the central synchronizer (Sections 2.2 and 5.3).

Phasers generalise barrier synchronisation — group synchronisation,
dynamic membership, split-phase operation and future-phase waits — and
subsume the other barrier abstractions of this package (clocks, finish
blocks are thin layers over :class:`Phaser`).

The API mirrors ``java.util.concurrent.Phaser`` (Figure 2), with one
deliberate difference inherited from JArmus: registration always binds a
*task*, because the verification needs to know which tasks participate in
a synchronisation.  Where Java code writes ``new Phaser(1)`` and shares
the object, this runtime registers the creating task explicitly
(``register_self=True``) and registers children at spawn
(``runtime.spawn(fn, register=[phaser])``, the X10 ``clocked`` idiom) or
from the task's own body (``phaser.register()``, the JArmus annotation).

Every member has a *local phase*, exactly the phaser map of the PL
semantics (Figure 4); the synchronisation event ``(p, n)`` is observed
once every signalling member's local phase reaches ``n``.

Beyond the paper's PL model, the runtime phaser supports HJ
*registration modes* (:mod:`repro.runtime.modes`) including the bounded
producer-consumer configuration the paper lists as future work: pass
``bound=k`` and register producers in ``SIG`` and consumers in ``WAIT``
mode; a producer more than ``k`` phases ahead blocks — observably, so
the deadlock analysis covers producer-side cycles too.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.core.events import Event
from repro.core.report import DeadlockReport
from repro.runtime.modes import RegistrationMode
from repro.runtime.observer import WaitSpec, blocked_status, notify_waiters, verified_wait
from repro.runtime.tasks import Task
from repro.runtime.verifier import ArmusRuntime, get_default_runtime


class PhaserMembershipError(RuntimeError):
    """An operation that requires (non-)membership was misused."""


class Phaser:
    """A verified phaser with dynamic membership and HJ modes.

    Parameters
    ----------
    runtime:
        The owning runtime (defaults to the process-wide one).
    register_self:
        Register the creating task at phase 0 in ``SIG_WAIT`` mode (PL's
        ``newPhaser`` and X10's clock-creation semantics).
    name:
        Label used in deadlock reports.
    bound:
        Optional producer-consumer bound: a signalling member may run at
        most ``bound`` phases ahead of the slowest ``WAIT``-mode member.
        ``None`` (default) means unbounded (pure barrier semantics).
    """

    def __init__(
        self,
        runtime: Optional[ArmusRuntime] = None,
        register_self: bool = True,
        name: Optional[str] = None,
        bound: Optional[int] = None,
    ) -> None:
        self.runtime = runtime if runtime is not None else get_default_runtime()
        self._rid = self.runtime.new_resource_id(name or "phaser")
        #: The wait-side resource of a bounded phaser (consumers' clock).
        self._rid_wait = f"{self._rid}/w"
        if bound is not None and bound < 0:
            raise ValueError("bound must be non-negative")
        self.bound = bound
        self._cond = threading.Condition()
        #: Signal-side members (SIG, SIG_WAIT): task -> local signal phase.
        self._members: Dict[Task, int] = {}
        #: Wait-only members (WAIT): task -> local wait phase.
        self._wait_members: Dict[Task, int] = {}
        self._modes: Dict[Task, RegistrationMode] = {}
        if register_self:
            self.register()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(
        self,
        task: Optional[Task] = None,
        mode: RegistrationMode = RegistrationMode.SIG_WAIT,
    ) -> int:
        """Register ``task`` (default: the caller) at the current phase.

        Returns the phase joined at.  Registering an already-registered
        task raises (rule [reg] premise).
        """
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            if task in self._modes:
                raise PhaserMembershipError(
                    f"{task.name} already registered with {self._rid}"
                )
            phase = self._observed_phase_locked()
            self._enroll(task, mode, phase)
            return phase

    def register_child(
        self,
        child: Task,
        parent: Optional[Task] = None,
        mode: RegistrationMode = RegistrationMode.SIG_WAIT,
    ) -> int:
        """Register a not-yet-started task, inheriting the parent's phase.

        This is PL's ``reg(t, p)`` and X10's ``async clocked(c)``: the
        child can never miss the phase its parent spawned it in.  Must run
        before the child starts (a running task manages its own
        registrations; see Section 2.2 on the registration race).
        """
        if child.started:
            raise PhaserMembershipError(
                f"register_child({child.name}) after the task started"
            )
        if parent is None:
            parent = self.runtime.current_task()
        with self._cond:
            if child in self._modes:
                raise PhaserMembershipError(
                    f"{child.name} already registered with {self._rid}"
                )
            phase = self._members.get(parent)
            if phase is None:
                phase = self._observed_phase_locked()
            self._enroll(child, mode, phase)
            return phase

    def _enroll(self, task: Task, mode: RegistrationMode, phase: int) -> None:
        self._modes[task] = mode
        if mode.signals:
            self._members[task] = phase
        if mode is RegistrationMode.WAIT:
            self._wait_members[task] = phase
        task._add_registration(self)
        # Trace context: membership changes are recorded through the
        # task's runtime (a shared phaser spans runtimes/sites).
        task.runtime.notify_register(task, self._rid, phase)

    def in_mode(self, mode: RegistrationMode) -> "_ModalRegistrar":
        """A spawn-time registration handle carrying a mode.

        ``runtime.spawn(fn, register=[ph.in_mode(RegistrationMode.WAIT)])``
        registers the child as a consumer *before it starts* — the only
        race-free way to guarantee the bound is engaged from the first
        item (cf. Section 2.2's registration race).
        """
        return _ModalRegistrar(self, mode)

    def deregister(self, task: Optional[Task] = None) -> None:
        """Revoke membership (PL ``dereg``; X10 ``drop``).

        Leaving may complete a pending synchronisation (or relax the
        producer bound), so waiters are notified.
        """
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            if task not in self._modes:
                raise PhaserMembershipError(
                    f"{task.name} not registered with {self._rid}"
                )
            self._evict(task)
            notify_waiters(self._cond)

    def _evict(self, task: Task) -> None:
        self._modes.pop(task, None)
        self._members.pop(task, None)
        self._wait_members.pop(task, None)
        task._remove_registration(self)

    def is_registered(self, task: Optional[Task] = None) -> bool:
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            return task in self._modes

    def mode_of(self, task: Optional[Task] = None) -> Optional[RegistrationMode]:
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            return self._modes.get(task)

    @property
    def registered_parties(self) -> int:
        with self._cond:
            return len(self._modes)

    # ------------------------------------------------------------------
    # synchronisation
    # ------------------------------------------------------------------
    def arrive(self) -> int:
        """Arrive without waiting (PL ``adv``; split-phase initiation).

        Returns the phase the arrival completes (the caller's new local
        phase).  On a bounded phaser with ``WAIT`` members, arrival
        first blocks (observably) until the producer is within ``bound``
        phases of the slowest consumer.
        """
        task, target, bound_spec = self._arrive_begin()
        if bound_spec is not None:
            verified_wait(bound_spec)
        return self._arrive_commit(task, target)

    def _arrive_begin(self):
        """Validate membership and resolve the arrival target; returns
        ``(task, target, bound_spec)`` where ``bound_spec`` is the wait
        a bounded producer must perform first (or ``None``)."""
        task = self.runtime.current_task()
        with self._cond:
            mode = self._modes.get(task)
            if mode is None or not mode.signals:
                raise PhaserMembershipError(
                    f"{task.name} cannot arrive at {self._rid}: "
                    f"{'wait-only member' if mode else 'not registered'}"
                )
            target = self._members[task] + 1
        return task, target, self._bound_spec(task, target)

    def _bound_spec(self, task: Task, target: int) -> Optional[WaitSpec]:
        """The wait that makes signalling ``target`` respect the bound."""
        if self.bound is None:
            return None
        threshold = target - self.bound  # consumers must have reached this
        if threshold <= 0:
            return None

        def ready() -> bool:
            if not self._wait_members:
                return True
            return min(self._wait_members.values()) >= threshold

        def status():
            return blocked_status(task, Event(self._rid_wait, threshold))

        return WaitSpec(self._cond, ready, task, status)

    def _arrive_commit(self, task: Task, target: int) -> int:
        """Publish the arrival and notify waiters."""
        with self._cond:
            if task in self._members:  # may have been evicted meanwhile
                self._members[task] = target
            notify_waiters(self._cond)
        task.runtime.notify_advance(task, self._rid, target)
        return target

    def await_advance(self, phase: Optional[int] = None) -> None:
        """Block until every signalling member's local phase is at least
        ``phase`` (PL ``await``; the split-phase completion).

        ``phase`` defaults to the caller's local phase — for ``WAIT``
        members, their wait phase plus one (each await observes the next
        signal event).  Non-members may await an explicit phase
        (HJ-style observers and future-phase waits).  Signal-only
        members cannot wait.
        """
        spec = self._await_spec(phase)
        verified_wait(spec)
        self._await_finish(spec)

    def _await_spec(self, phase: Optional[int] = None) -> WaitSpec:
        """Resolve the awaited phase and describe the wait."""
        task = self.runtime.current_task()
        with self._cond:
            mode = self._modes.get(task)
            if mode is RegistrationMode.SIG:
                raise PhaserMembershipError(
                    f"{task.name} is signal-only on {self._rid}: cannot wait"
                )
            if phase is None:
                if mode is RegistrationMode.SIG_WAIT:
                    phase = self._members[task]
                elif mode is RegistrationMode.WAIT:
                    phase = self._wait_members[task] + 1
                else:
                    raise PhaserMembershipError(
                        f"{task.name} must pass a phase: not registered "
                        f"with {self._rid}"
                    )
        target = phase

        def ready() -> bool:
            return self._ready_locked(target)

        def status():
            return blocked_status(task, Event(self._rid, target))

        def on_avoided(report: DeadlockReport) -> None:
            # Deregister before raising, as Armus does for clocks, so the
            # survivors can make progress without the doomed task.
            with self._cond:
                if task in self._modes:
                    self._evict(task)
                    notify_waiters(self._cond)

        return WaitSpec(
            self._cond, ready, task, status, on_avoided, target=target
        )

    def _await_finish(self, spec: WaitSpec) -> None:
        """Post-wait bookkeeping: a ``WAIT`` member observed the event."""
        task, target = spec.task, spec.target
        with self._cond:
            if self._modes.get(task) is RegistrationMode.WAIT:
                current = self._wait_members.get(task, 0)
                self._wait_members[task] = max(current, target)
                # Consumer progress may unblock bounded producers.
                notify_waiters(self._cond)

    def arrive_and_await_advance(self) -> int:
        """The barrier step: arrive, then wait for everyone (Figure 2's
        ``arriveAndAwaitAdvance``).  Returns the phase synchronised on."""
        phase = self.arrive()
        self.await_advance(phase)
        return phase

    def arrive_and_deregister(self) -> None:
        """Arrive and immediately leave (Figure 2's join-barrier signal).

        The combined operation stops the caller from impeding the next
        event without making it wait — ``adv`` then ``dereg`` of PL, done
        atomically.
        """
        task = self.runtime.current_task()
        with self._cond:
            if task not in self._modes:
                raise PhaserMembershipError(
                    f"{task.name} not registered with {self._rid}"
                )
            self._evict(task)
            notify_waiters(self._cond)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def phase(self) -> int:
        """The observed phase: the least local phase among signalling
        members (0 for a memberless phaser)."""
        with self._cond:
            return self._observed_phase_locked()

    def local_phase(self, task: Optional[Task] = None) -> Optional[int]:
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            return self._members.get(task)

    def wait_phase(self, task: Optional[Task] = None) -> Optional[int]:
        """A ``WAIT`` member's progress (observed signal events)."""
        if task is None:
            task = self.runtime.current_task()
        with self._cond:
            return self._wait_members.get(task)

    def _observed_phase_locked(self) -> int:
        if not self._members:
            return 0
        return min(self._members.values())

    def _ready_locked(self, phase: int) -> bool:
        """``await(P, n)``: every signalling member at least at ``phase``.

        Must be called with ``self._cond`` held — the predicate handed to
        :func:`verified_wait` runs under the condition's lock.
        """
        return all(p >= phase for p in self._members.values())

    # ------------------------------------------------------------------
    # observer protocol (used by repro.runtime.observer)
    # ------------------------------------------------------------------
    def _phase_of(self, task: Task) -> Optional[int]:
        with self._cond:
            return self._members.get(task)

    def _registrations_of(self, task: Task) -> Dict[str, int]:
        """Both resource sides: signal members impede ``rid`` events;
        WAIT members impede only the wait-side ``rid/w`` events that gate
        bounded producers."""
        with self._cond:
            out: Dict[str, int] = {}
            if task in self._members:
                out[self._rid] = self._members[task]
            if task in self._wait_members:
                out[self._rid_wait] = self._wait_members[task]
            return out

    def _leave_on_termination(self, task: Task) -> None:
        """X10/HJ semantics: terminated tasks deregister everywhere."""
        with self._cond:
            if task in self._modes:
                self._evict(task)
                notify_waiters(self._cond)

    def __repr__(self) -> str:
        with self._cond:
            bound = f" bound={self.bound}" if self.bound is not None else ""
            return (
                f"<Phaser {self._rid} phase={self._observed_phase_locked()} "
                f"parties={len(self._modes)}{bound}>"
            )


class _ModalRegistrar:
    """Adapter so ``spawn(register=[...])`` can carry a mode."""

    def __init__(self, phaser: Phaser, mode: RegistrationMode) -> None:
        self.phaser = phaser
        self.mode = mode

    def register_child(
        self, child: Task, parent: Optional[Task] = None
    ) -> int:
        return self.phaser.register_child(child, parent, mode=self.mode)
