"""A seeded nondeterministic interpreter (scheduler) for PL.

Runs a PL state to quiescence by repeatedly firing one enabled reduction
chosen pseudo-randomly.  Because PL's ``loop`` reduces nondeterministically
([i-loop]/[e-loop]), the interpreter exposes an ``unfold_bias`` knob and a
global step budget so that every run terminates.

The interpreter doubles as the *application layer* for verifying PL
programs: with a :class:`~repro.core.checker.DeadlockChecker` attached it
publishes the resource-dependency abstraction ``phi(S)`` whenever the set
of blocked tasks changes — the PL analogue of JArmus intercepting blocking
calls (Section 5.3) — and can run in avoidance or detection style.

For exhaustiveness (small programs only), :func:`explore` enumerates the
full reachable state space and reports every quiescent state, classifying
each as finished, deadlocked, or faulted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.checker import DeadlockChecker
from repro.core.report import DeadlockReport
from repro.pl.deadlock import deadlocked_subset, to_snapshot
from repro.pl.semantics import Step, apply_step, enabled_steps
from repro.pl.state import State
from repro.pl.syntax import Name, Seq


@dataclass
class RunResult:
    """Outcome of one interpreter run."""

    state: State
    steps: int
    #: True when the step budget ran out before quiescence.
    exhausted: bool
    #: The largest totally-deadlocked task subset of the final state.
    deadlocked: FrozenSet[Name]
    #: Reports produced by an attached checker (at most one unless the
    #: deadlock was repeatedly re-confirmed).
    reports: List[DeadlockReport] = field(default_factory=list)

    @property
    def is_deadlocked(self) -> bool:
        return bool(self.deadlocked)

    @property
    def finished(self) -> bool:
        return not self.state.live_tasks()


class Interpreter:
    """Seeded scheduler with optional deadlock verification.

    Parameters
    ----------
    seed:
        Seed for the scheduling RNG (runs are reproducible).
    unfold_bias:
        Probability of choosing [i-loop] over [e-loop] when both are
        offered; lower values terminate loops faster.
    max_steps:
        Global reduction budget.
    checker:
        Optional deadlock checker fed with ``phi(S)`` after every step.
    check_every:
        Check cadence in steps when a checker is attached (the detection
        "period" translated from wall-clock to reduction counts).
    recorder:
        Optional :class:`~repro.trace.recorder.TraceRecorder`; the
        blocked-set *diffs* of each ``phi(S)`` publication are recorded
        as block/unblock records, so PL runs replay exactly like runtime
        runs.  Requires an attached ``checker`` (recording piggybacks on
        its publication points).
    """

    def __init__(
        self,
        seed: int = 0,
        unfold_bias: float = 0.5,
        max_steps: int = 100_000,
        checker: Optional[DeadlockChecker] = None,
        check_every: int = 1,
        recorder=None,
    ) -> None:
        self.rng = random.Random(seed)
        self.unfold_bias = unfold_bias
        self.max_steps = max_steps
        self.checker = checker
        self.check_every = max(1, check_every)
        self.recorder = recorder
        self._published: Dict[Name, object] = {}

    def run(self, start: State) -> RunResult:
        """Reduce ``start`` until no step is enabled or the budget ends."""
        # Each run publishes a fresh blocked-set stream; stale diff state
        # from a previous run() would suppress or fabricate deltas.
        self._published = {}
        if self.checker is not None:
            self.checker.dependency.clear_all()
        state = start
        steps = 0
        reports: List[DeadlockReport] = []
        while steps < self.max_steps:
            step = self._choose(enabled_steps(state))
            if step is None:
                break
            state = apply_step(state, step)
            steps += 1
            if self.checker is not None and steps % self.check_every == 0:
                report = self._verify(state)
                if report is not None:
                    reports.append(report)
                    break
        else:
            return RunResult(
                state=state,
                steps=steps,
                exhausted=True,
                deadlocked=deadlocked_subset(state),
                reports=reports,
            )
        if self.checker is not None and not reports:
            report = self._verify(state)
            if report is not None:
                reports.append(report)
        return RunResult(
            state=state,
            steps=steps,
            exhausted=False,
            deadlocked=deadlocked_subset(state),
            reports=reports,
        )

    # ------------------------------------------------------------------
    def _choose(self, steps: List[Step]) -> Optional[Step]:
        if not steps:
            return None
        # Apply the unfold bias: when a task offers both loop rules, keep
        # one of them according to a biased coin flip.
        by_task: Dict[Name, List[Step]] = {}
        for s in steps:
            by_task.setdefault(s.task, []).append(s)
        candidates: List[Step] = []
        for options in by_task.values():
            rules = {s.rule for s in options}
            if rules == {"i-loop", "e-loop"}:
                pick = "i-loop" if self.rng.random() < self.unfold_bias else "e-loop"
                candidates.extend(s for s in options if s.rule == pick)
            else:
                candidates.extend(options)
        return self.rng.choice(candidates)

    def _verify(self, state: State) -> Optional[DeadlockReport]:
        """Publish phi(state) into the checker and run one check.

        What is published — and recorded, when a recorder is attached —
        is the blocked-set delta since the last publication: tasks that
        left the blocked set unblock; new or changed statuses block.
        """
        assert self.checker is not None
        statuses = to_snapshot(state).statuses
        ops = [
            ("clear", task, None)
            for task in self._published if task not in statuses
        ]
        ops += [
            ("set", task, status)
            for task, status in statuses.items()
            if self._published.get(task) != status
        ]
        self._published = dict(statuses)
        if self.recorder is not None:
            for op, task, status in ops:
                if op == "clear":
                    self.recorder.record_unblock(task)
                else:
                    self.recorder.record_block(task, status)
        self.checker.apply_batch(ops)
        return self.checker.check()


@dataclass
class ExploreResult:
    """Exhaustive exploration outcome (small programs only)."""

    #: Quiescent states with every task finished.
    finished: List[State] = field(default_factory=list)
    #: Quiescent states with a non-empty deadlocked subset.
    deadlocked: List[State] = field(default_factory=list)
    #: Quiescent states that are stuck for non-await reasons (errors).
    faulted: List[State] = field(default_factory=list)
    #: Number of distinct states visited.
    visited: int = 0
    #: True when exploration hit the state or depth cap.
    truncated: bool = False


def explore(
    start: State,
    max_states: int = 50_000,
    max_loop_unfolds: int = 2,
) -> ExploreResult:
    """Enumerate the reachable state space of ``start``.

    ``loop`` bodies are unfolded at most ``max_loop_unfolds`` times per
    branch to keep the space finite; this explores the behaviours of the
    bounded unrollings, which is sufficient for the barrier patterns the
    test-suite model-checks.
    """
    result = ExploreResult()
    seen: Set[Tuple] = set()
    stack: List[Tuple[State, int]] = [(start, 0)]
    while stack:
        state, unfolds = stack.pop()
        key = (_state_key(state), unfolds)
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > max_states:
            result.truncated = True
            break
        steps = enabled_steps(state)
        if unfolds >= max_loop_unfolds:
            steps = [s for s in steps if s.rule != "i-loop"]
        if not steps:
            result.visited = len(seen)
            if not state.live_tasks():
                result.finished.append(state)
            elif deadlocked_subset(state):
                result.deadlocked.append(state)
            else:
                result.faulted.append(state)
            continue
        for step in steps:
            nxt = apply_step(state, step)
            nxt_unfolds = unfolds + (1 if step.rule == "i-loop" else 0)
            stack.append((nxt, nxt_unfolds))
    result.visited = len(seen)
    return result


def _state_key(state: State) -> Tuple:
    phasers = tuple(
        sorted((p, tuple(sorted(ph.items()))) for p, ph in state.phasers.items())
    )
    tasks = tuple(sorted(state.tasks.items()))
    return (phasers, tasks)
