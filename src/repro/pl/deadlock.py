"""Ground-truth deadlock characterisation (Definitions 3.1 and 3.2).

These definitions are *independent of any graph analysis* — they inspect
the state directly.  The soundness and completeness theorems relate them
to cycle detection on the graphs of Section 4, and the property-based
tests in ``tests/test_theorems.py`` check both directions on random
states and random programs.

* **Totally deadlocked** (Def. 3.1): every task is blocked on an
  ``await`` and is impeded by some task *of the same state*.
* **Deadlocked on T** (Def. 3.2): some sub-task-map ``T`` of the state is
  totally deadlocked (the remaining tasks may still be able to run).

:func:`deadlocked_subset` computes the *largest* totally-deadlocked
sub-map as a greatest fixed point: start from all awaiting tasks and
repeatedly discard tasks whose await is not impeded by a remaining task.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.core.dependency import DependencySnapshot
from repro.core.events import BlockedStatus, Event
from repro.pl.state import State
from repro.pl.syntax import Await, Name


def awaiting_tasks(state: State) -> Dict[Name, Tuple[Name, int]]:
    """Tasks whose next instruction is ``await(p)`` with ``p`` membership.

    Returns ``task -> (phaser, local phase)``.  A task awaiting a phaser
    it is not registered with is an error state, not a blocked task, and
    is excluded (the paper's Def. 3.1 requires ``M(p)(t) = n``).
    """
    out: Dict[Name, Tuple[Name, int]] = {}
    for task, body in state.tasks.items():
        if not body:
            continue
        head = body[0]
        if not isinstance(head, Await):
            continue
        phaser = state.phasers.get(head.phaser)
        if phaser is None or task not in phaser:
            continue
        out[task] = (head.phaser, phaser[task])
    return out


def blocked_tasks(state: State) -> FrozenSet[Name]:
    """Awaiting tasks whose ``await`` predicate does not (yet) hold."""
    blocked = set()
    for task, (p, n) in awaiting_tasks(state).items():
        phaser = state.phasers[p]
        if any(m < n for m in phaser.values()):
            blocked.add(task)
    return frozenset(blocked)


def is_totally_deadlocked(state: State) -> bool:
    """Definition 3.1, checked verbatim.

    ``T`` must be non-empty; every task must be of the form
    ``await(p); s`` with ``M(p)(t) = n``; and some task *of this state*
    must be registered below ``n`` on the same phaser.
    """
    if not state.tasks:
        return False
    awaiting = awaiting_tasks(state)
    if set(awaiting) != set(state.tasks):
        return False
    for task, (p, n) in awaiting.items():
        phaser = state.phasers[p]
        if not any(
            phaser.phase_of(other) is not None and phaser[other] < n
            for other in state.tasks
        ):
            return False
    return True


def deadlocked_subset(state: State) -> FrozenSet[Name]:
    """The largest task set ``B`` such that ``(M, T|B)`` is totally
    deadlocked; empty when the state is not deadlocked.

    Greatest-fixed-point iteration: begin with every awaiting task and
    remove any task whose awaited phase is not impeded by a *remaining*
    task; repeat to a fixed point.
    """
    awaiting = awaiting_tasks(state)
    candidates = set(awaiting)
    changed = True
    while changed:
        changed = False
        for task in list(candidates):
            p, n = awaiting[task]
            phaser = state.phasers[p]
            if not any(
                other in candidates
                and phaser.phase_of(other) is not None
                and phaser[other] < n
                for other in candidates
            ):
                candidates.discard(task)
                changed = True
    return frozenset(candidates)


def is_deadlocked(state: State) -> bool:
    """Definition 3.2: some sub-task-map is totally deadlocked."""
    return bool(deadlocked_subset(state))


def to_snapshot(state: State, only_blocked: bool = True) -> DependencySnapshot:
    """The resource-dependency abstraction ``phi(M, T)`` (Definition 4.1).

    Maps every awaiting task to a :class:`BlockedStatus`: it waits on the
    event ``(p, n)`` where ``n`` is its local phase, and it registers the
    local phases of all its phasers (from which the ``I`` map is derived).

    With ``only_blocked=True`` tasks whose await already holds are
    excluded — they are about to reduce via [sync].  Including them is
    harmless for cycle detection (they have no impeders, hence no
    out-edges) but the runtime never reports them, so tests default to the
    runtime's view.
    """
    statuses: Dict[Name, BlockedStatus] = {}
    blocked = blocked_tasks(state)
    for task, (p, n) in awaiting_tasks(state).items():
        if only_blocked and task not in blocked:
            continue
        statuses[task] = BlockedStatus(
            waits=frozenset({Event(p, n)}),
            registered=state.registered_phasers(task),
        )
    return DependencySnapshot(statuses=statuses)
