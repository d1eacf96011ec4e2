"""PL states (Section 3): ``S ::= (M, T)``.

``M`` maps phaser names to phasers; ``T`` maps task names to the
instruction sequence the task still has to execute.  A task whose
sequence is ``end`` (the empty tuple) has terminated but remains in the
task map, exactly as in the paper's [fork] rule, which requires the
forked name to exist with body ``end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.pl.phaser import Phaser
from repro.pl.syntax import END, Name, Seq


@dataclass(frozen=True)
class State:
    """An immutable PL state ``(M, T)``."""

    phasers: Dict[Name, Phaser] = field(default_factory=dict)
    tasks: Dict[Name, Seq] = field(default_factory=dict)

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def initial(main: Seq, task: Name = "main") -> "State":
        """The canonical initial state: a single task about to run ``main``."""
        return State(phasers={}, tasks={task: main})

    def with_phaser(self, name: Name, phaser: Phaser) -> "State":
        phasers = dict(self.phasers)
        phasers[name] = phaser
        return State(phasers=phasers, tasks=self.tasks)

    def with_task(self, name: Name, body: Seq) -> "State":
        tasks = dict(self.tasks)
        tasks[name] = body
        return State(phasers=self.phasers, tasks=tasks)

    def with_tasks(self, updates: Dict[Name, Seq]) -> "State":
        tasks = dict(self.tasks)
        tasks.update(updates)
        return State(phasers=self.phasers, tasks=tasks)

    # -- fresh-name generation -----------------------------------------------
    def fresh_task_name(self, hint: str = "t") -> Name:
        return _fresh(hint, self.tasks.keys())

    def fresh_phaser_name(self, hint: str = "p") -> Name:
        return _fresh(hint, self.phasers.keys())

    # -- observation -----------------------------------------------------------
    def head(self, task: Name) -> Optional[object]:
        """The next instruction of ``task`` (None when terminated)."""
        body = self.tasks[task]
        return body[0] if body else None

    def live_tasks(self) -> Tuple[Name, ...]:
        """Tasks that have instructions left to run."""
        return tuple(t for t, s in self.tasks.items() if s != END)

    def registered_phasers(self, task: Name) -> Dict[Name, int]:
        """``phaser -> local phase`` for every phaser ``task`` belongs to."""
        return {
            p: ph[task]
            for p, ph in self.phasers.items()
            if task in ph
        }

    def describe(self) -> str:
        lines = ["phasers:"]
        for p in sorted(self.phasers):
            lines.append(f"  {p}: {self.phasers[p]!r}")
        lines.append("tasks:")
        for t in sorted(self.tasks):
            body = self.tasks[t]
            head = repr(body[0]) if body else "end"
            lines.append(f"  {t}: {head} (+{max(len(body) - 1, 0)} more)")
        return "\n".join(lines)


def _fresh(hint: str, taken: Iterable[Name]) -> Name:
    taken = set(taken)
    i = len(taken)
    while True:
        candidate = f"{hint}{i}"
        if candidate not in taken:
            return candidate
        i += 1
