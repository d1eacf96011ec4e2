"""Stateful property test: the checkers, in lock step, under arbitrary ops.

A hypothesis state machine drives one op stream — vetted blocks
(``check_before_block``), unvetted ``set_blocked``, ``clear``, a
republication of a status object published earlier, the same three
behind the checker's back, ``clear_all``, detection ``check`` — through
four checkers, each over its own store, and maintains a parallel oracle
(a plain dict of statuses):

* ``DeadlockChecker(AUTO)`` — answers a vetted block by the store's
  search from the blocking task while the store is known acyclic;
* ``DeadlockChecker(WFG)`` and ``DeadlockChecker(SG)`` — build their
  graph on every check: the reference;
* ``IncrementalChecker(AUTO)`` — the maintained-WFG verdict.

A second ``AUTO`` checker shares the first one's store and takes some
of the ops in its place; a fifth, :class:`FullGraphAuto`, runs
``check_before_block`` the way it ran before the search existed and
supplies the reports a refusal must reproduce.

Invariants after every step:

* every store's content equals the oracle, object for object — each
  oracle status is current (by identity) in every store;
* ``check()`` agrees with a from-scratch cycle search on the oracle;
* all graph models agree on the verdict;
* all checkers agree accept/refuse on every vetted block; an accepted
  one leaves a cycle-free state under both graph builders, a refused
  one leaves every store unchanged and carries the full-graph report;
* the ``AUTO`` store's phase index, once materialised, equals one
  rebuilt from its snapshot;
* the ``AUTO`` checker builds a graph exactly when the machine's model
  of the known-acyclic mark says it must — in particular a refusal is
  followed by search-only accepts again.
"""

from __future__ import annotations

import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.checker import DeadlockChecker
from repro.core.cycles import has_cycle
from repro.core.dependency import DependencySnapshot
from repro.core.events import BlockedStatus, Event
from repro.core.graphs import build_sg, build_wfg
from repro.core.incremental import IncrementalChecker
from repro.core.selection import GraphModel

TASKS = [f"t{i}" for i in range(5)]
PHASERS = [f"p{i}" for i in range(3)]

statuses = st.builds(
    BlockedStatus,
    waits=st.sets(
        st.builds(
            Event,
            phaser=st.sampled_from(PHASERS),
            phase=st.integers(0, 3),
        ),
        min_size=1,
        max_size=2,
    ).map(frozenset),
    registered=st.dictionaries(
        st.sampled_from(PHASERS), st.integers(0, 3), max_size=3
    ),
)


class FullGraphAuto(DeadlockChecker):
    """``check_before_block`` without the search: publish, then the
    full-graph analysis on every check."""

    def check_before_block(self, task, status):
        with self._avoidance_lock:
            t0 = time.perf_counter()
            prior = self.dependency.get(task)
            written = self.dependency.set_blocked(task, status)
            return self._finish_avoidance(t0, task, status, prior, written)


def reference_index(statuses_by_task) -> dict:
    """``phaser -> phase -> {event: count}`` straight from Definition
    4.3, independent of the store's own bookkeeping."""
    index: dict = {}
    for status in statuses_by_task.values():
        for phaser, phase in status.registered.items():
            for event in status.waits:
                bucket = index.setdefault(phaser, {}).setdefault(phase, {})
                bucket[event] = bucket.get(event, 0) + 1
    return index


def evidence(report):
    return (report.tasks, report.events, report.cycle, report.model_used,
            report.edge_count, report.avoided)


class CheckerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.checker = DeadlockChecker(model=GraphModel.AUTO)
        self.twin = DeadlockChecker(
            model=GraphModel.AUTO, dependency=self.checker.dependency
        )
        self.reference = FullGraphAuto(model=GraphModel.AUTO)
        self.wfg = DeadlockChecker(model=GraphModel.WFG)
        self.sg = DeadlockChecker(model=GraphModel.SG)
        self.incremental = IncrementalChecker(model=GraphModel.AUTO)
        #: One checker per store, in the order ops are applied.
        self.all = [self.checker, self.reference, self.wfg, self.sg,
                    self.incremental]
        self.oracle: dict = {}
        #: Every ``(task, status)`` published, for republication.
        self.published: list = []
        #: The machine's model of the AUTO store's known-acyclic mark.
        self.known_acyclic = True
        self.snapshots = 0
        snapshot = self.checker.dependency.snapshot

        def counting_snapshot():
            self.snapshots += 1
            return snapshot()

        self.checker.dependency.snapshot = counting_snapshot

    # -- operations --------------------------------------------------------
    @rule(task=st.sampled_from(TASKS), status=statuses, via_twin=st.booleans())
    def block(self, task, status, via_twin):
        """Unvetted publication (a detection-mode block entry)."""
        for checker in self._checkers(via_twin):
            checker.set_blocked(task, status)
        self._published(task, status)
        self.known_acyclic = False

    @rule(task=st.sampled_from(TASKS), status=statuses)
    def foreign_block(self, task, status):
        """A write straight to the stores, behind every checker's back."""
        for checker in self.all:
            checker.dependency.set_blocked(task, status)
        self._published(task, status)
        self.known_acyclic = False

    @rule(task=st.sampled_from(TASKS))
    def foreign_unblock(self, task):
        for checker in self.all:
            checker.dependency.clear(task)
        self.oracle.pop(task, None)

    @precondition(lambda self: self.published)
    @rule(data=st.data())
    def foreign_republish(self, data):
        """An earlier status object put back straight into the stores:
        over a blocked task no change of count."""
        task, status = data.draw(st.sampled_from(self.published))
        for checker in self.all:
            checker.dependency.set_blocked(task, status)
        self.oracle[task] = status
        self.known_acyclic = False

    @rule(task=st.sampled_from(TASKS), via_twin=st.booleans())
    def unblock(self, task, via_twin):
        for checker in self._checkers(via_twin):
            checker.clear(task)
        self.oracle.pop(task, None)

    @precondition(lambda self: self.published)
    @rule(data=st.data(), via_twin=st.booleans())
    def republish(self, data, via_twin):
        """Publish a status object published earlier again (the
        avoidance take-back's write)."""
        task, status = data.draw(st.sampled_from(self.published))
        for checker in self._checkers(via_twin):
            checker.set_blocked(task, status)
        self.oracle[task] = status
        self.known_acyclic = False

    @rule()
    def clear_all(self):
        for checker in self.all:
            checker.dependency.clear_all()
        self.oracle.clear()
        self.known_acyclic = True

    @rule()
    def detection_check(self):
        cyclic = self._oracle_cyclic()
        for checker in self.all + [self.twin]:
            assert (checker.check() is not None) == cyclic

    @rule(task=st.sampled_from(TASKS), status=statuses, via_twin=st.booleans())
    def avoidance_check(self, task, status, via_twin):
        self._vet(task, status, via_twin)

    @precondition(lambda self: self.oracle)
    @rule(data=st.data(), status=statuses, via_twin=st.booleans())
    def avoidance_check_republication(self, data, status, via_twin):
        """A vetted block of a task that is already published."""
        task = data.draw(st.sampled_from(sorted(self.oracle)))
        self._vet(task, status, via_twin)

    def _vet(self, task, status, via_twin):
        before = dict(self.oracle)
        built_before = self.snapshots
        outcomes = [
            checker.check_before_block(task, status)
            for checker in self._checkers(via_twin)
        ]
        built = self.snapshots - built_before
        verdicts = {report is None for report in outcomes}
        assert len(verdicts) == 1, "the checkers disagree accept/refuse"
        report, reference_report = outcomes[0], outcomes[1]
        if report is None:
            # Accepted: published, and the resulting state is cycle-free.
            self._published(task, status)
            assert not self._oracle_cyclic()
            assert not has_cycle(build_sg(self._oracle_snapshot()))
            # A graph was built exactly when the store could not vouch
            # for the state before; either way it can vouch now.
            assert built == (0 if self.known_acyclic else 1)
            self.known_acyclic = True
        else:
            # Refused: every store must be exactly as before, and the
            # evidence is the full-graph checker's, field for field.
            for checker in self.all:
                assert checker.dependency.snapshot().statuses == before
            assert evidence(report) == evidence(reference_report)
            assert evidence(outcomes[-1]) == evidence(reference_report)
            assert report.avoided
            assert built == 1, "a refusal's evidence comes from the graph"
            # Taking the offending status back restores what the store
            # knew before: the mark survives a refusal, it is never
            # gained by one.

    # -- invariants -----------------------------------------------------------
    @invariant()
    def store_matches_oracle(self):
        for checker in self.all:
            store = checker.dependency
            assert store.snapshot().statuses == self.oracle
            assert all(store.is_current(t, s) for t, s in self.oracle.items())

    @invariant()
    def models_agree(self):
        snapshot = self._oracle_snapshot()
        assert has_cycle(build_wfg(snapshot)) == has_cycle(build_sg(snapshot))

    @invariant()
    def index_matches_snapshot(self):
        index = self.checker.dependency.phase_index()
        if index is not None:
            assert index == reference_index(self.oracle)
        for checker in self.all[1:]:
            # Only AUTO asks the avoidance question that materialises it.
            assert checker.dependency.phase_index() is None

    @invariant()
    def known_acyclic_is_sound(self):
        if self.known_acyclic:
            assert not self._oracle_cyclic()

    # -- helpers -----------------------------------------------------------------
    def _checkers(self, via_twin: bool) -> list:
        """The checkers an op goes through, one per store: the AUTO
        store's op enters through the twin when ``via_twin``."""
        return [self.twin if via_twin else self.checker] + self.all[1:]

    def _published(self, task, status) -> None:
        self.oracle[task] = status
        self.published.append((task, status))

    def _oracle_snapshot(self) -> DependencySnapshot:
        return DependencySnapshot(statuses=dict(self.oracle))

    def _oracle_cyclic(self) -> bool:
        return has_cycle(build_wfg(self._oracle_snapshot()))


CheckerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestCheckerStateful = CheckerMachine.TestCase
