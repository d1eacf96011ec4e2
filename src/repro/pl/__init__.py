"""PL: the paper's core phaser-based language (Section 3).

PL abstracts user-level barrier programs as instruction sequences over
nine constructs (task creation, forking, phaser creation, registration,
deregistration, phase advance, await, loop, skip).  The package provides:

* :mod:`repro.pl.syntax` — the abstract syntax and a small builder DSL;
* :mod:`repro.pl.phaser` — the phaser data structure and its three
  mutating operations plus the ``await`` predicate (Figure 4, top);
* :mod:`repro.pl.state` — PL states ``(M, T)``;
* :mod:`repro.pl.semantics` — the small-step operational semantics
  (Figure 4), exposing every enabled reduction of a state;
* :mod:`repro.pl.deadlock` — the ground-truth deadlock characterisation
  (Definitions 3.1 and 3.2), independent of any graph analysis;
* :mod:`repro.pl.interpreter` — a seeded nondeterministic scheduler with
  verification hooks;
* :mod:`repro.pl.programs` — the paper's running example (Figure 3) and a
  library of barrier synchronisation patterns;
* :mod:`repro.pl.generator` — a random program generator for
  property-based testing of the soundness/completeness theorems.
"""

from repro.pl.syntax import (
    Instruction,
    NewTid,
    Fork,
    NewPhaser,
    Reg,
    Dereg,
    Adv,
    Await,
    Loop,
    Skip,
    seq,
)
from repro.pl.phaser import Phaser, await_holds
from repro.pl.state import State
from repro.pl.semantics import enabled_steps, step_task, is_stuck
from repro.pl.deadlock import (
    is_totally_deadlocked,
    is_deadlocked,
    deadlocked_subset,
    blocked_tasks,
    to_snapshot,
)
from repro.pl.interpreter import Interpreter, RunResult
from repro.pl.parser import parse, PLSyntaxError

__all__ = [
    "Instruction",
    "NewTid",
    "Fork",
    "NewPhaser",
    "Reg",
    "Dereg",
    "Adv",
    "Await",
    "Loop",
    "Skip",
    "seq",
    "Phaser",
    "await_holds",
    "State",
    "enabled_steps",
    "step_task",
    "is_stuck",
    "is_totally_deadlocked",
    "is_deadlocked",
    "deadlocked_subset",
    "blocked_tasks",
    "to_snapshot",
    "Interpreter",
    "RunResult",
    "parse",
    "PLSyntaxError",
]
