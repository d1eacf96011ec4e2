"""Shared SPMD infrastructure for the workload kernels.

The NPB/JGF-style kernels all follow the same shape — ``n`` tasks, slab
decomposition over NumPy arrays, stepwise iteration coordinated by a
fixed set of cyclic barriers, barrier-based reductions —
so the scaffolding lives here once:

* :func:`slab` — 1-D block decomposition;
* :class:`SpmdPool` — spawn ``n`` ranks registered with a shared barrier,
  run a rank body, join, validate;
* :class:`Reducer` — barrier-based all-reduce over per-rank partials
  (the shared-array idiom Java NPB uses);
* :func:`make_runtime` — runtime construction from a verification-mode
  name, used uniformly by tests and benches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.selection import GraphModel
from repro.runtime.barriers import CyclicBarrier
from repro.runtime.verifier import ArmusRuntime, VerificationMode


class ValidationError(AssertionError):
    """A workload produced a numerically wrong result."""


@dataclass
class WorkloadResult:
    """What a kernel returns: a checksum plus validation evidence."""

    name: str
    n_tasks: int
    checksum: float
    validated: bool
    details: Dict[str, Any] = field(default_factory=dict)

    def require_valid(self) -> "WorkloadResult":
        if not self.validated:
            raise ValidationError(f"{self.name}: validation failed ({self.details})")
        return self


def slab(n: int, rank: int, size: int) -> slice:
    """Block decomposition: the ``rank``-th of ``size`` contiguous chunks
    of ``range(n)`` (earlier ranks get the remainder)."""
    base, extra = divmod(n, size)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return slice(lo, hi)


def make_runtime(
    mode: str = "off",
    model: GraphModel = GraphModel.AUTO,
    interval_s: float = 0.1,
) -> ArmusRuntime:
    """Build a runtime from a mode name (``off``/``detection``/``avoidance``).

    The uniform entry point for tests, benches and examples; detection
    runtimes come back *started* (monitor running).
    """
    runtime = ArmusRuntime(
        mode=VerificationMode(mode),
        model=model,
        interval_s=interval_s,
    )
    return runtime.start()


class Reducer:
    """Barrier-based all-reduce: each rank deposits a partial, the
    barrier trips, every rank reads the combined value.

    This is the Java-NPB reduction idiom (shared array + barrier), so the
    synchronisation pattern seen by the verifier matches the paper's
    benchmarks: two barrier steps per reduction.
    """

    def __init__(self, n_tasks: int, barrier: CyclicBarrier) -> None:
        self._partials = np.zeros(n_tasks)
        self._barrier = barrier
        self._n = n_tasks

    def all_reduce(self, rank: int, value: float) -> float:
        """Deposit ``value`` for ``rank``; returns the sum over ranks."""
        self._partials[rank] = value
        self._barrier.await_barrier()
        total = float(self._partials.sum())
        # Second step: nobody may overwrite partials for the next
        # reduction until everyone has read this one.
        self._barrier.await_barrier()
        return total


class SpmdPool:
    """Run an SPMD body on ``n`` ranks sharing one cyclic barrier.

    The body receives ``(rank, pool)`` and uses :meth:`barrier_step`,
    :meth:`all_reduce` and the shared arrays it closes over.  The pool
    matches the structure of the paper's Section 6.1 benchmarks: a fixed
    number of tasks and a fixed number of cyclic barriers for the whole
    computation.
    """

    def __init__(
        self,
        runtime: ArmusRuntime,
        n_tasks: int,
        name: str = "spmd",
        extra_barriers: int = 0,
    ) -> None:
        self.runtime = runtime
        self.n_tasks = n_tasks
        self.name = name
        self.barrier = CyclicBarrier(n_tasks, runtime, name=f"{name}-bar")
        #: Additional barriers for phase-separated algorithms (e.g. FT's
        #: transpose step); all fixed up front, as in SPMD programs.
        self.barriers: List[CyclicBarrier] = [
            CyclicBarrier(n_tasks, runtime, name=f"{name}-bar{i}")
            for i in range(extra_barriers)
        ]
        self.reducer = Reducer(n_tasks, self.barrier)
        self._errors: List[BaseException] = []
        self._errors_lock = threading.Lock()

    # -- rank-side operations ------------------------------------------------
    def barrier_step(self, which: Optional[int] = None) -> None:
        """One cyclic-barrier synchronisation (``which`` selects an extra
        barrier; default is the main one)."""
        bar = self.barrier if which is None else self.barriers[which]
        bar.await_barrier()

    def all_reduce(self, rank: int, value: float) -> float:
        return self.reducer.all_reduce(rank, value)

    # -- driver side -----------------------------------------------------------
    def run(self, body: Callable[[int, "SpmdPool"], None], timeout: float = 120.0):
        """Spawn the ranks, run ``body`` on each, join; re-raise the first
        rank failure."""

        def wrapped(rank: int) -> None:
            try:
                body(rank, self)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with self._errors_lock:
                    self._errors.append(exc)
                raise

        registrations = [self.barrier] + self.barriers
        tasks = [
            self.runtime.spawn(
                wrapped, rank, register=registrations, name=f"{self.name}-r{rank}"
            )
            for rank in range(self.n_tasks)
        ]
        for t in tasks:
            t.join(timeout)
        return tasks
