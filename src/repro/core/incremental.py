"""Delta-maintained analysis state: O(change) updates, O(1) no-cycle checks.

The classic :class:`~repro.core.checker.DeadlockChecker` re-derives the
analysis graph from the blocked-status snapshot at every check — each
check is O(registrations) after the awaited-index work, so a
``check_every=1`` replay of an N-task trace is O(N²) overall.
:class:`IncrementalChecker` removes the per-check rebuild: it consumes
the same *deltas* the trace format already expresses (task blocked /
unblocked, site buckets republished) and maintains
the Wait-For Graph edge set in place, answering cycle queries through an
incrementally maintained SCC structure (:class:`~repro.core.scc.DynamicSCC`).

**Delta contract.**  The maintained state is a *subscriber* of the
checker's :class:`~repro.core.dependency.ResourceDependency`: the store
holds the one table of blocked statuses and tells it every write —
through this checker, another checker sharing the store, or the store
itself — as ``(op, task, old, new)`` under the store's lock, so there is
no write the graph can miss and every producer (runtime observer hooks,
replay engines, the distributed delta-merge view) feeds this checker
unchanged.  A blocked status is immutable while published (the task
observer's core insight), therefore one status contributes a *fixed*
WFG edge group computable at publication:

* out-edges ``task -> t2`` for every ``t2`` impeding an event ``task``
  waits on, found through a phase-bucketed registration index;
* in-edges ``t1 -> task`` for every already-blocked ``t1`` waiting on an
  event ``task`` impedes, found through an awaited-events index.

Withdrawal removes the task's vertex and (only) its incident edges —
sound because every WFG edge needs both endpoints blocked, so no other
pair's edge can depend on the withdrawn status.

There is no batch window to open: the structure prices its upkeep
over the span between two queries (:mod:`repro.core.scc`), however
the writes arrive.

**Query contract.**  While the maintained WFG is acyclic — the common
case by far — :meth:`check` answers in O(1) with no snapshot, no graph
build and no Tarjan run.  When a cycle exists:

* under the fixed **WFG** model the canonical cycle is extracted
  straight from the maintained component partition
  (:meth:`~repro.core.scc.DynamicSCC.extract_cycle` — a scoped Tarjan
  over the cyclic components only, cached against per-component
  mutation epochs) and the report is assembled from the maintained
  statuses — O(cyclic component), no snapshot, no graph build, with
  bytes identical to the classic path because the extraction rules
  (minimal-vertex SCC choice, canonical BFS, minimal-vertex rotation)
  and the report-assembly code agree field for field;
* under **SG**/**AUTO** selection the checker falls back to the classic
  path (snapshot → :func:`~repro.core.selection.build_graph` →
  canonical extraction), since the chosen model — and hence the
  report's event-cycle content and edge count — depends on the built
  graph, which only the classic path produces.

Cycle *existence* is model-independent either way (Theorem 4.8: the WFG
has a cycle iff the SG has one), so the maintained WFG is a sound and
complete oracle for any configured model, and report *content* is
byte-identical to the from-scratch checker's — differential-tested
pointwise.  Every report field is a function of the blocked *set*
(canonical cycle, tasks in vertex-key order, AUTO's build over the
same order), so a per-epoch cache skips even the fallback when the
graph has not changed since the last extraction (a detection monitor
polling a stable deadlock): no reordering of the same statuses can
change the answer.

The checker inherits the classic one's :class:`~repro.core.dependency.
ResourceDependency` store, so ``is_current`` revalidation (the table
still holds the very status object analysed) and the avoidance
take-back keep their semantics; queries run under that store's lock —
the one lock that orders writes, the listener and reads of the
maintained graph.
"""

from __future__ import annotations

import time
from functools import partial
from operator import attrgetter
from typing import Dict, Optional, Set

from repro.core.checker import DeadlockChecker
from repro.core.dependency import DependencySnapshot, ResourceDependency
from repro.core.events import BlockedStatus, Event, PhaserId, TaskId
from repro.core.report import DeadlockReport
from repro.core.scc import DynamicSCC
from repro.core.selection import (
    DEFAULT_THRESHOLD_FACTOR,
    GraphModel,
    build_graph,
)
from repro.obs.registry import MetricsRegistry

#: Tally slots: the counted write ops, then fallback checks, then the
#: structure's work counters (fed from its own running totals).
_OP_SLOTS = {"set_blocked": 0, "clear": 1}
_FALLBACK_SLOT = len(_OP_SLOTS)
_SCC_WORK = ("extractions", "pk_visits", "resolves")


class IncrementalChecker(DeadlockChecker):
    """A :class:`DeadlockChecker` whose graph state is delta-maintained.

    Drop-in compatible: same constructor, same mutation and query
    surface, same reports (how queries are answered: the module
    docstring's query contract).  Passing an explicit ``snapshot``
    bypasses the incremental state and behaves exactly like the parent
    class (offline ablations over foreign snapshots keep working).
    """

    def __init__(
        self,
        model: GraphModel = GraphModel.AUTO,
        threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
        dependency: Optional[ResourceDependency] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(model, threshold_factor, dependency, metrics=metrics)
        # The store's lock orders its writes, the listener they call
        # and every query of the state the listener maintains.
        self._lock = self.dependency._lock
        self._scc = DynamicSCC()
        # Incremental-path instruments live next to the check
        # instruments, fed by one tally bumped under the store's lock.
        # SCC work is volatile: visit counts follow set/dict iteration
        # order, which varies with each process's string-hash seed.
        reg = self.metrics
        deltas = reg.counter("repro_incremental_delta_ops_total",
                             "Delta operations applied to the maintained graph state.",
                             labels=("op",))
        fallbacks = reg.counter("repro_incremental_fallback_checks_total",
                                "Cyclic-state checks answered through the classic "
                                "snapshot-and-rebuild path (SG/AUTO models).")
        scc_work = reg.counter("repro_scc_work_total",
                               "DynamicSCC maintenance work, published from the "
                               "structure's own counters whenever the registry is read.",
                               labels=("kind",), volatile=True)
        self._tally = reg.tally(
            self._lock,
            [deltas.labels(op=op) for op in _OP_SLOTS] + [fallbacks.labels()]
            + [scc_work.labels(kind=kind) for kind in _SCC_WORK],
            totals=partial(attrgetter(*_SCC_WORK), self._scc),
        )
        # phaser -> local phase -> tasks registered there (blocked only).
        self._phases: Dict[PhaserId, Dict[int, Set[TaskId]]] = {}
        # phaser -> awaited event -> blocked tasks waiting on it.
        self._awaited: Dict[PhaserId, Dict[Event, Set[TaskId]]] = {}
        # The last cyclic answer before revalidation (see
        # ``DeadlockChecker._analysis``) and the epoch it answers for.
        self._cached_epoch = -1
        self._cached: tuple = ()
        self.dependency.subscribe(self._on_write)

    # ------------------------------------------------------------------
    # delta application (fed by the store, see ``subscribe`` there)
    # ------------------------------------------------------------------
    def _on_write(
        self,
        op: str,
        task: TaskId,
        old: Optional[BlockedStatus],
        new: Optional[BlockedStatus],
    ) -> None:
        """Move ``task``'s share of graph and indexes from ``old`` to
        ``new``.  The store calls this under its lock."""
        # (Subscription replay and ``clear_all`` drops are no delta ops.)
        slot = _OP_SLOTS.get(op)
        if slot is not None:
            self._tally.counts[slot] += 1
        if old is not None:
            self._retract(task, old)
        if new is not None:
            self._insert(task, new)

    def _insert(self, task: TaskId, status: BlockedStatus) -> None:
        """Fold one newly published status into graph and indexes."""
        scc = self._scc
        scc.add_vertex(task)
        for phaser, phase in status.registered.items():
            self._phases.setdefault(phaser, {}).setdefault(phase, set()).add(task)
        for event in status.waits:
            self._awaited.setdefault(event.phaser, {}).setdefault(
                event, set()
            ).add(task)
        # Out-edges: who impedes the events this task waits on.
        for event in status.waits:
            for phase, holders in self._phases.get(event.phaser, {}).items():
                if phase < event.phase:
                    for impeder in holders:
                        scc.add_edge(task, impeder)
        # In-edges: who already waits on an event this task impedes.
        for phaser, phase in status.registered.items():
            for event, waiters in self._awaited.get(phaser, {}).items():
                if phase < event.phase:
                    for waiter in waiters:
                        scc.add_edge(waiter, task)

    def _retract(self, task: TaskId, status: BlockedStatus) -> None:
        """Withdraw a status: drop the vertex and its incident edges."""
        for phaser, phase in status.registered.items():
            buckets = self._phases[phaser]
            buckets[phase].discard(task)
            if not buckets[phase]:
                del buckets[phase]
            if not buckets:
                del self._phases[phaser]
        for event in status.waits:
            waiters = self._awaited[event.phaser]
            waiters[event].discard(task)
            if not waiters[event]:
                del waiters[event]
            if not waiters:
                del self._awaited[event.phaser]
        self._scc.remove_vertex(task)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def check(
        self,
        snapshot=None,
        revalidate: bool = False,
    ) -> Optional[DeadlockReport]:
        if snapshot is not None:
            return super().check(snapshot=snapshot, revalidate=revalidate)
        t0 = time.perf_counter()
        with self._lock:
            scc = self._scc
            if not scc.has_cycle():
                self._record(t0, None, GraphModel.WFG, scc.edge_count)
                return None
            if scc.mutation_epoch != self._cached_epoch:
                if self.model is GraphModel.WFG:
                    # Incremental extraction: the maintained WFG *is*
                    # the analysis graph under this model, so the
                    # canonical cycle comes straight from the component
                    # partition — no snapshot, no rebuild.  The store's
                    # own table is read in place under its lock.
                    snapshot = DependencySnapshot(statuses=self.dependency._statuses)
                    report = self._wfg_report(snapshot.statuses, scc.extract_cycle(),
                                              scc.edge_count, avoided=False)
                    self._cached = (snapshot, report, GraphModel.WFG, scc.edge_count)
                else:
                    self._tally.counts[_FALLBACK_SLOT] += 1
                    snapshot = self.dependency.snapshot()
                    self._cached = self._analysis(snapshot, build_graph(
                        snapshot, self.model, self.threshold_factor))
                self._cached_epoch = scc.mutation_epoch
            # Revalidated on every call: a failed revalidation is this
            # call's answer, not the epoch's.
            return self._verdict(t0, revalidate, *self._cached)

    def check_before_block(
        self, task: TaskId, status: BlockedStatus
    ) -> Optional[DeadlockReport]:
        with self._avoidance_lock, self._lock:
            t0 = time.perf_counter()
            prior = self.dependency.get(task)
            written = self.set_blocked(task, status)
            if not self._scc.has_cycle():
                # Fast accept: publishing this status created no cycle,
                # so blocking cannot complete a deadlock.
                self._record(t0, None, GraphModel.WFG, self._scc.edge_count)
                return None
            # Slow path: the classic refusal, shared with the parent.
            return self._finish_avoidance(t0, task, status, prior, written)

    # ------------------------------------------------------------------
    # introspection (tests, benchmarks)
    # ------------------------------------------------------------------
    @property
    def wfg_edge_count(self) -> int:
        """Edges of the maintained Wait-For Graph."""
        with self._lock:
            return self._scc.edge_count

    @property
    def mutation_epoch(self) -> int:
        """Global delta counter (see :attr:`DynamicSCC.mutation_epoch`)."""
        with self._lock:
            return self._scc.mutation_epoch

    @property
    def incremental_extractions(self) -> int:
        """Scoped cycle extractions computed (WFG model; cache misses)."""
        with self._lock:
            return self._scc.extractions

    def maintained_graph(self):
        """Materialise the maintained WFG (differential tests)."""
        with self._lock:
            return self._scc.to_digraph()
