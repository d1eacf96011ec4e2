"""Synchronisation events and per-task blocked statuses (Section 4.1).

Armus represents concurrency constraints through *synchronisation events*
in the sense of Lamport logical clocks: when the members of phaser ``p``
synchronise on phase ``n``, each of them observes the event ``(p, n)``.
A blocked task *waits* for one (or more) such events, and *impedes* every
future event of each phaser it is registered with, because a blocked task
cannot arrive anywhere else.

A resource in the sense of the classical deadlock literature (Holt 1972)
is exactly one event; the paper's bijection ``res(p, n)`` is the identity
on :class:`Event`.

The blocked status of a task is purely local information: the events the
task waits for, and the task's local phase on every phaser it is
registered with.  No global membership bookkeeping is required, which is
the key enabler for dynamic membership and distributed detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

# Task and phaser names.  Any hashable value works; the runtime uses small
# integers, the PL interpreter uses strings such as ``"t1"`` and ``"p"``.
TaskId = Hashable
PhaserId = Hashable


#: The last element of every event, and what keeps one unequal to every
#: task id, the tuple ``(phaser, phase)`` included: tasks and events
#: share one dict in the GRG and in report attribution.  ``object``'s
#: identity hash and equality are C slots, so the tag costs no Python
#: call either.
_EVENT = object()


class Event(tuple):
    """A synchronisation event: phase ``phase`` of phaser ``phaser``.

    Events are the *resources* of the deadlock analysis.  They are totally
    ordered per phaser by their phase number (the logical-clock timestamp).

    The value is the tuple ``(phaser, phase, _EVENT)`` and hashes,
    compares and sorts as one, in C: an event is every vertex of an SG
    check, so its identity is paid per dict probe and per comparison.
    """

    __slots__ = ()

    def __new__(cls, phaser: PhaserId, phase: int) -> "Event":
        if phase < 0:
            raise ValueError(f"phase must be non-negative, got {phase}")
        return tuple.__new__(cls, (phaser, phase, _EVENT))

    phaser = property(itemgetter(0), doc="The phaser synchronised on.")
    phase = property(itemgetter(1), doc="The phase number awaited.")

    def __reduce__(self):
        return (type(self), (self[0], self[1]))

    def __repr__(self) -> str:  # compact form used in reports
        return f"{self[0]}@{self[1]}"


@dataclass(frozen=True)
class BlockedStatus:
    """The locally-observable state of one blocked task.

    Attributes
    ----------
    waits:
        The events the task is blocked on.  In PL a task awaits a single
        phaser, so this is a singleton; the representation supports sets so
        that richer runtimes (e.g. a task joining several futures) reuse the
        same checker.
    registered:
        Local phases of *all* phasers the task is registered with, as a
        mapping ``phaser -> local phase``.  The task impedes every event
        ``(q, k)`` with ``k > registered[q]``: it has not arrived at ``q``
        for phase ``k`` and, being blocked, cannot do so.

    A status is immutable, so one object may be published for several
    tasks; whether it is still a task's current status is the store's
    question, answered by identity
    (:meth:`~repro.core.dependency.ResourceDependency.is_current`).
    """

    waits: frozenset[Event]
    registered: Mapping[PhaserId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.waits, frozenset):
            object.__setattr__(self, "waits", frozenset(self.waits))
        # Freeze the registered mapping so statuses are safely shareable
        # across threads and usable as snapshot members.
        if not isinstance(self.registered, _FrozenPhases):
            object.__setattr__(self, "registered", _FrozenPhases(self.registered))
        if not self.waits:
            raise ValueError("a blocked status must wait on at least one event")

    def impedes(self, event: Event) -> bool:
        """Whether this task impedes ``event``.

        A task impedes ``(p, n)`` when it is registered with ``p`` at a
        local phase strictly below ``n`` (Definition 4.1's ``I`` map,
        evaluated locally).
        """
        phase = self.registered.get(event.phaser)
        return phase is not None and phase < event.phase

    def impeded_events(self, awaited: Iterable[Event]) -> frozenset[Event]:
        """The subset of ``awaited`` events this task impedes."""
        return frozenset(e for e in awaited if self.impedes(e))


class _FrozenPhases(dict):
    """An immutable ``phaser -> phase`` mapping (hashable, mutation-raising)."""

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))

    def _readonly(self, *args, **kwargs):  # pragma: no cover - guard path
        raise TypeError("BlockedStatus.registered is immutable")

    def __reduce__(self):
        # Default dict-subclass pickling rebuilds item-by-item through
        # __setitem__, which the guards above reject; rebuild through
        # the constructor instead (statuses cross process boundaries in
        # the corpus-prediction fan-out).
        return (type(self), (dict(self),))

    __setitem__ = _readonly
    __delitem__ = _readonly
    clear = _readonly
    pop = _readonly
    popitem = _readonly
    setdefault = _readonly
    update = _readonly


def waiting_on(phaser: PhaserId, phase: int, **registered: int) -> BlockedStatus:
    """Convenience constructor used pervasively in tests.

    ``waiting_on("p", 1, p=1, q=0)`` builds the status of a task blocked
    on event ``p@1`` while registered with ``p`` at phase 1 and ``q`` at
    phase 0.
    """
    return BlockedStatus(
        waits=frozenset({Event(phaser, phase)}),
        registered=dict(registered),
    )
