"""Small-step operational semantics of PL (Figure 4).

The semantics is presented as in the paper: a reduction relation over
states.  :func:`enabled_steps` enumerates every reduction a state offers
(a task may offer two — a ``loop`` can unfold, [i-loop], or exit,
[e-loop]); :func:`apply_step` performs one.  Schedulers (the interpreter,
the model-checking helpers in the tests) choose among enabled steps.

Rule premises that a correct program must establish — registering a task
twice, advancing a phaser one is not a member of — raise
:class:`~repro.pl.phaser.PhaserError` rather than silently blocking: in
PL such a task is *stuck on an error*, which is distinct from being
blocked on ``await`` (only the latter participates in deadlocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.pl.phaser import Phaser, PhaserError, await_holds
from repro.pl.state import State
from repro.pl.syntax import (
    END,
    Adv,
    Await,
    Dereg,
    Fork,
    Loop,
    Name,
    NewPhaser,
    NewTid,
    Reg,
    Seq,
    Skip,
    substitute_seq,
)


@dataclass(frozen=True)
class Step:
    """One enabled reduction: ``task`` may fire ``rule``."""

    task: Name
    rule: str  # skip | i-loop | e-loop | new-t | fork | new-ph | reg | dereg | adv | sync

    def __repr__(self) -> str:
        return f"<{self.task}:{self.rule}>"


def enabled_steps(state: State) -> List[Step]:
    """All reductions ``state`` offers, across all tasks."""
    steps: List[Step] = []
    for task in state.tasks:
        steps.extend(task_steps(state, task))
    return steps


def task_steps(state: State, task: Name) -> List[Step]:
    """The reductions offered by ``task`` (zero, one, or two for loops)."""
    body = state.tasks[task]
    if body == END:
        return []
    head = body[0]
    if isinstance(head, Skip):
        return [Step(task, "skip")]
    if isinstance(head, Loop):
        return [Step(task, "i-loop"), Step(task, "e-loop")]
    if isinstance(head, NewTid):
        return [Step(task, "new-t")]
    if isinstance(head, Fork):
        target = state.tasks.get(head.task)
        # Rule [fork] requires the forked name to exist with body ``end``.
        return [Step(task, "fork")] if target == END else []
    if isinstance(head, NewPhaser):
        return [Step(task, "new-ph")]
    if isinstance(head, Reg):
        phaser = state.phasers.get(head.phaser)
        if phaser is not None and task in phaser and head.task not in phaser:
            return [Step(task, "reg")]
        return []
    if isinstance(head, Dereg):
        phaser = state.phasers.get(head.phaser)
        if phaser is not None and task in phaser:
            return [Step(task, "dereg")]
        return []
    if isinstance(head, Adv):
        phaser = state.phasers.get(head.phaser)
        if phaser is not None and task in phaser:
            return [Step(task, "adv")]
        return []
    if isinstance(head, Await):
        phaser = state.phasers.get(head.phaser)
        if phaser is not None and task in phaser:
            if await_holds(phaser, phaser[task]):
                return [Step(task, "sync")]
        return []
    raise TypeError(f"unknown instruction: {head!r}")  # pragma: no cover


def apply_step(state: State, step: Step) -> State:
    """Perform ``step`` on ``state`` (the reduction relation of Figure 4)."""
    task = step.task
    body = state.tasks[task]
    if body == END:
        raise PhaserError(f"task {task!r} has terminated")
    head, rest = body[0], body[1:]
    rule = step.rule

    if rule == "skip":
        assert isinstance(head, Skip)
        return state.with_task(task, rest)

    if rule == "i-loop":
        assert isinstance(head, Loop)
        return state.with_task(task, head.body + (head,) + rest)

    if rule == "e-loop":
        assert isinstance(head, Loop)
        return state.with_task(task, rest)

    if rule == "new-t":
        assert isinstance(head, NewTid)
        fresh = state.fresh_task_name()
        return state.with_tasks(
            {task: substitute_seq(rest, head.var, fresh), fresh: END}
        )

    if rule == "fork":
        assert isinstance(head, Fork)
        if state.tasks.get(head.task) != END:
            raise PhaserError(
                f"fork target {head.task!r} is not an idle task name"
            )
        return state.with_tasks({task: rest, head.task: head.body})

    if rule == "new-ph":
        assert isinstance(head, NewPhaser)
        fresh = state.fresh_phaser_name()
        return state.with_phaser(fresh, Phaser({task: 0})).with_task(
            task, substitute_seq(rest, head.var, fresh)
        )

    if rule == "reg":
        assert isinstance(head, Reg)
        phaser = _member_phaser(state, task, head.phaser)
        phase = phaser[task]
        return state.with_phaser(
            head.phaser, phaser.reg(head.task, phase)
        ).with_task(task, rest)

    if rule == "dereg":
        assert isinstance(head, Dereg)
        phaser = _member_phaser(state, task, head.phaser)
        return state.with_phaser(head.phaser, phaser.dereg(task)).with_task(
            task, rest
        )

    if rule == "adv":
        assert isinstance(head, Adv)
        phaser = _member_phaser(state, task, head.phaser)
        return state.with_phaser(head.phaser, phaser.adv(task)).with_task(
            task, rest
        )

    if rule == "sync":
        assert isinstance(head, Await)
        phaser = _member_phaser(state, task, head.phaser)
        if not await_holds(phaser, phaser[task]):
            raise PhaserError(f"await({head.phaser}) does not hold for {task!r}")
        return state.with_task(task, rest)

    raise ValueError(f"unknown rule: {rule!r}")  # pragma: no cover


def _member_phaser(state: State, task: Name, phaser_name: Name) -> Phaser:
    phaser = state.phasers.get(phaser_name)
    if phaser is None:
        raise PhaserError(f"no such phaser: {phaser_name!r}")
    if task not in phaser:
        raise PhaserError(f"task {task!r} not registered with {phaser_name!r}")
    return phaser


def step_task(state: State, task: Name, rule: Optional[str] = None) -> State:
    """Reduce ``task`` once; pick its unique enabled rule when ``rule`` is
    omitted (raises if the task is stuck or the choice is ambiguous)."""
    options = task_steps(state, task)
    if rule is not None:
        options = [s for s in options if s.rule == rule]
    if not options:
        raise PhaserError(f"task {task!r} has no enabled step (rule={rule!r})")
    if len(options) > 1:
        raise PhaserError(
            f"task {task!r} offers several steps {options}; specify a rule"
        )
    return apply_step(state, options[0])


def is_stuck(state: State) -> bool:
    """No reductions and at least one task has instructions left."""
    return bool(state.live_tasks()) and not enabled_steps(state)


def is_finished(state: State) -> bool:
    """Every task reduced to ``end``."""
    return not state.live_tasks()
