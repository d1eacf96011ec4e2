"""Resource-dependency state (Definition 4.1) and its mutable container.

A resource-dependency state ``D = (I, W)`` pairs the *impeding tasks* map
``I`` (event -> tasks that have not arrived at that event) with the
*waiting resources* map ``W`` (task -> events it is blocked on).

Section 5.1 of the paper notes that maintaining the blocked status is far
more frequent than checking for deadlocks, "so the resource-dependencies
are rearranged per task to optimise updates".  :class:`ResourceDependency`
follows that design: it stores one :class:`~repro.core.events.BlockedStatus`
per blocked task, O(1) to set and clear, and materialises the ``(I, W)``
view only when a check runs (:meth:`ResourceDependency.snapshot`).

Avoidance asks a narrower question than a check — does *this one* new
status close a cycle? — and the store answers it without a snapshot:
:meth:`ResourceDependency.vet_block` searches from the new status over
a phase index the store keeps once it has been asked (see there).

**One table.**  A checker's blocked statuses live in exactly one dict,
``ResourceDependency._statuses``; every write ends in one private funnel
that, under the store's lock, keeps the phase index in step and tells
every subscriber (:meth:`ResourceDependency.subscribe`) what changed.  A
structure derived from the statuses is fed by that funnel or reads that
dict — never a mirror of it, so there is no write it can miss.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.events import BlockedStatus, Event, PhaserId, TaskId


@dataclass(frozen=True)
class DependencySnapshot:
    """An immutable point-in-time view of the blocked statuses.

    This is the input to graph construction.  ``statuses`` maps each
    blocked task to the status it reported; the classical ``W`` map is
    ``{t: statuses[t].waits}`` and ``I`` is derived by comparing local
    phases against awaited events (see :meth:`impeders_of`).
    """

    statuses: Mapping[TaskId, BlockedStatus]

    @property
    def tasks(self) -> Tuple[TaskId, ...]:
        return tuple(self.statuses)

    @property
    def waits(self) -> Dict[TaskId, frozenset[Event]]:
        """The ``W`` map of Definition 4.1 restricted to blocked tasks."""
        return {t: s.waits for t, s in self.statuses.items()}

    @property
    def awaited_events(self) -> frozenset[Event]:
        """All events some blocked task is waiting on (the resources)."""
        out: set[Event] = set()
        for status in self.statuses.values():
            out.update(status.waits)
        return frozenset(out)

    def impeders_of(self, event: Event) -> frozenset[TaskId]:
        """The ``I(event)`` set restricted to blocked tasks.

        Restricting ``I`` to blocked tasks preserves both soundness and
        completeness of cycle detection: every vertex on a WFG cycle has an
        outgoing edge, hence waits, hence is blocked (Lemma 4.9/4.11).
        """
        return frozenset(
            t for t, s in self.statuses.items() if s.impedes(event)
        )

    def impeding_map(self) -> Dict[Event, frozenset[TaskId]]:
        """The full ``I`` map over all awaited events."""
        return {e: self.impeders_of(e) for e in self.awaited_events}

    def phaser_index(self) -> Dict[PhaserId, list[Tuple[TaskId, int]]]:
        """Index ``phaser -> [(task, local phase)]`` over blocked tasks.

        Used by graph builders to find impeders of ``(p, n)`` without
        scanning all tasks per event.
        """
        index: Dict[PhaserId, list[Tuple[TaskId, int]]] = {}
        for t, s in self.statuses.items():
            for p, n in s.registered.items():
                index.setdefault(p, []).append((t, n))
        return index

    def awaited_index(self) -> Dict[PhaserId, list[Event]]:
        """Index ``phaser -> [awaited events on it]``.

        The SG builders use it to find the events a task impedes from
        its registrations alone — O(registrations) per task instead of
        a scan over every awaited event, which turns per-check SG
        construction from O(tasks × events) into O(registrations).
        """
        index: Dict[PhaserId, list[Event]] = {}
        for e in self.awaited_events:
            index.setdefault(e.phaser, []).append(e)
        return index

    def __len__(self) -> int:
        return len(self.statuses)

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self.statuses)

    def is_empty(self) -> bool:
        return not self.statuses


#: ``phaser -> local phase -> {awaited event: blocked tasks there that
#: await it}`` — the State Graph's successor relation, bucketed: the
#: successors of event ``(p, n)`` are the keys of every bucket of ``p``
#: below phase ``n``.  Counting tasks per event (instead of listing
#: them) collapses an SPMD bucket of identical statuses to one entry.
PhaseIndex = Dict[PhaserId, Dict[int, Dict[Event, int]]]

#: ``listener(op, task, old, new)``, see :meth:`ResourceDependency.subscribe`.
WriteListener = Callable[
    [str, TaskId, Optional[BlockedStatus], Optional[BlockedStatus]], None
]


def index_statuses(statuses: Iterable[BlockedStatus]) -> PhaseIndex:
    """The phase index of ``statuses``, built from scratch."""
    index: PhaseIndex = {}
    for status in statuses:
        _index_add(index, status)
    return index


def _index_add(index: PhaseIndex, status: BlockedStatus) -> None:
    for phaser, phase in status.registered.items():
        bucket = index.setdefault(phaser, {}).setdefault(phase, {})
        for event in status.waits:
            bucket[event] = bucket.get(event, 0) + 1


def _index_discard(index: PhaseIndex, status: BlockedStatus) -> None:
    """Undo :func:`_index_add`, pruning buckets and phasers left empty."""
    for phaser, phase in status.registered.items():
        phases = index[phaser]
        bucket = phases[phase]
        for event in status.waits:
            if bucket[event] == 1:
                del bucket[event]
            else:
                bucket[event] -= 1
        if not bucket:
            del phases[phase]
            if not phases:
                del index[phaser]


def _closes_cycle(index: PhaseIndex, status: BlockedStatus) -> Tuple[bool, int]:
    """Whether ``status``, already in ``index``, lies on a cycle, and
    how many index edges the search examined.

    Every edge ``status`` contributes runs from an event it impedes to
    an event it waits on, so it lies on a cycle iff some event it waits
    on reaches an event it impedes.  A depth-first search over events;
    per phaser it remembers the highest phase already expanded, so
    every bucket is read once however many events of that phaser are
    reached.
    """
    impedes = status.impedes
    examined = 0
    seen = set(status.waits)
    stack = list(seen)
    expanded: Dict[PhaserId, int] = {}
    while stack:
        event = stack.pop()
        phases = index.get(event.phaser)
        if phases is None:
            continue
        done = expanded.get(event.phaser)
        if done is not None and event.phase <= done:
            continue
        expanded[event.phaser] = event.phase
        for phase, bucket in phases.items():
            if phase < event.phase and (done is None or phase >= done):
                for successor in bucket:
                    examined += 1
                    if impedes(successor):
                        return True, examined
                    if successor not in seen:
                        seen.add(successor)
                        stack.append(successor)
    return False, examined


class ResourceDependency:
    """Thread-safe per-task store of blocked statuses.

    The application layer calls :meth:`set_blocked` when a task is about to
    block and :meth:`clear` when it unblocks.  The deadlock checker calls
    :meth:`snapshot` to obtain a consistent immutable view.

    A status is immutable while published, so the table holds the
    caller's own object and *that object* is the stamp: ``is_current``
    asks whether the table still holds it, which lets a checker verify a
    status is unchanged before reporting — closing the race in detection
    mode where a task unblocks between the snapshot and the analysis.
    One object may be published for several tasks (equal statuses read
    from one trace section); currency is per task, so the sharing is
    harmless.

    **Avoidance.**  The store also records up to which write its content
    is *known acyclic* (:meth:`edge_writes`, :meth:`confirm_acyclic`).
    While that holds, a new status can only close a cycle through
    itself, so :meth:`vet_block` decides it by a search from that status
    alone.  Every ``set_blocked`` can add a graph edge and voids the
    knowledge simply by advancing the write count past it; ``clear``
    only removes edges and leaves it standing.
    """

    def __init__(self) -> None:
        # Re-entrant: a subscriber's owner queries, and its avoidance
        # path publishes, while holding it.
        self._lock = threading.RLock()
        self._statuses: Dict[TaskId, BlockedStatus] = {}
        # Edge-adding writes taken, and how many of them the content is
        # known acyclic as of; an empty store is.
        self._writes = 0
        self._acyclic_at = 0
        # Materialised by the first vet_block, maintained by every
        # write from then on; a store never asked never pays for it.
        self._index: Optional[PhaseIndex] = None
        self._listeners: List[WriteListener] = []

    def subscribe(self, listener: WriteListener) -> None:
        """Feed ``listener`` every write, for the store's lifetime.

        It is called as ``listener(op, task, old, new)`` under the
        store's lock, after the table changed: ``op`` names the method
        that wrote (``"set_blocked"``, ``"clear"``, ``"clear_all"`` —
        once per task it drops), ``old``/``new`` are
        the task's status before and after (``None``: not blocked; a
        ``clear`` of an unblocked task is still delivered).  Content
        already held arrives first, as ``"subscribe"`` writes, so a
        structure built from the calls alone equals one built from
        :meth:`snapshot`.
        """
        with self._lock:
            for task, status in self._statuses.items():
                listener("subscribe", task, None, status)
            self._listeners.append(listener)

    def set_blocked(self, task: TaskId, status: BlockedStatus) -> int:
        """Record that ``task`` is blocked with ``status`` (the object
        itself is stored).  Returns the write's ordinal, the argument
        :meth:`vet_block` and :meth:`confirm_withdrawn` take.
        """
        with self._lock:
            self._writes += 1
            self._write("set_blocked", task, status)
            return self._writes

    def clear(self, task: TaskId) -> None:
        """Remove ``task``'s blocked status (the task unblocked or died)."""
        with self._lock:
            self._write("clear", task, None)

    def get(self, task: TaskId) -> Optional[BlockedStatus]:
        """The currently published status of ``task``, if any."""
        with self._lock:
            return self._statuses.get(task)

    def _write(
        self, op: str, task: TaskId, new: Optional[BlockedStatus]
    ) -> None:
        """The one place a status enters or leaves the table; the phase
        index and every subscriber move with it, from ``task``'s old
        status to ``new``.  Caller holds the lock."""
        if new is None:
            old = self._statuses.pop(task, None)
        else:
            old = self._statuses.get(task)
            self._statuses[task] = new
        if self._index is not None:
            if old is not None:
                _index_discard(self._index, old)
            if new is not None:
                _index_add(self._index, new)
        for listener in self._listeners:
            listener(op, task, old, new)

    def snapshot(self) -> DependencySnapshot:
        """An immutable, consistent copy of all current blocked statuses."""
        with self._lock:
            return DependencySnapshot(statuses=dict(self._statuses))

    def is_current(self, task: TaskId, status: BlockedStatus) -> bool:
        """Whether the table still holds the very object ``status`` for
        ``task`` — an equal status published since is another object."""
        with self._lock:
            return self._statuses.get(task) is status

    def blocked_count(self) -> int:
        with self._lock:
            return len(self._statuses)

    def clear_all(self) -> None:
        with self._lock:
            for task in list(self._statuses):
                self._write("clear_all", task, None)
            self._acyclic_at = self._writes

    # ------------------------------------------------------------------
    # avoidance: the known-acyclic mark and the search that relies on it
    # ------------------------------------------------------------------
    def edge_writes(self) -> int:
        """How many edge-adding writes (``set_blocked``) the store has
        taken — read *before* a snapshot, it names a state the
        snapshot's content is a subset of (see :meth:`confirm_acyclic`)."""
        with self._lock:
            return self._writes

    def confirm_acyclic(self, as_of: int) -> None:
        """The caller analysed the content as of ``as_of`` and found no
        cycle.  Takes effect only if no edge-adding write landed since:
        clears in between leave a subset of an acyclic state."""
        with self._lock:
            if as_of == self._writes:
                self._acyclic_at = as_of

    def confirm_withdrawn(self, written: int, restored: bool) -> None:
        """The caller refused write ``written`` and took it back —
        ``restored``: by publishing the task's prior status again, else
        by a clear.  If the content was known acyclic right before
        ``written`` and those were the only edge-adding writes since, it
        is the same content again."""
        with self._lock:
            if (self._acyclic_at == written - 1
                    and self._writes == written + restored):
                self._acyclic_at = self._writes

    def vet_block(self, task: TaskId, written: int) -> Optional[int]:
        """Decide ``task``'s just-published write ``written`` by search,
        if possible.

        Returns the number of index edges examined when blocking is
        proven safe, and ``None`` when the caller must analyse the full
        graph: either the content before this publication was not known
        acyclic (an unvetted or concurrent write), or the search found a
        path from an event the status waits on to one it impedes — a
        cycle, whose evidence only the built graph supplies.

        The search follows ``event e -> events awaited by the blocked
        tasks registered below e.phase on e.phaser`` — State Graph
        edges (Definition 4.3), so by Theorem 4.8 the verdict holds for
        the WFG too.  It costs O(reachable events + their buckets):
        nothing on a barrier, the chain on a ring.
        """
        with self._lock:
            if self._index is None:
                self._index = index_statuses(self._statuses.values())
            # Known acyclic right before ``written``, nothing since —
            # so ``task``'s entry is what ``written`` stored.
            status = self._statuses.get(task)
            if (self._acyclic_at != written - 1 or self._writes != written
                    or status is None):
                return None
            found, examined = _closes_cycle(self._index, status)
            if found:
                return None
            self._acyclic_at = written
            return examined

    def phase_index(self) -> Optional[PhaseIndex]:
        """A copy of the maintained phase index; ``None`` until the
        first :meth:`vet_block` materialises it (tests, diagnostics)."""
        with self._lock:
            if self._index is None:
                return None
            return {
                phaser: {phase: dict(bucket) for phase, bucket in phases.items()}
                for phaser, phases in self._index.items()
            }
