"""Delta-maintained analysis state: O(change) updates, O(1) no-cycle checks.

The classic :class:`~repro.core.checker.DeadlockChecker` re-derives the
analysis graph from the blocked-status snapshot at every check — each
check is O(registrations) after the awaited-index work, so a
``check_every=1`` replay of an N-task trace is O(N²) overall.
:class:`IncrementalChecker` removes the per-check rebuild: it consumes
the same *deltas* the trace format already expresses (task blocked /
unblocked, statuses restored, site buckets republished) and maintains
the Wait-For Graph edge set in place, answering cycle queries through an
incrementally maintained SCC structure (:class:`~repro.core.scc.DynamicSCC`).

**Delta contract.**  Every state change arrives through exactly the
:class:`~repro.core.checker.DeadlockChecker` mutation surface —
:meth:`set_blocked`, :meth:`clear`, :meth:`restore` — so every existing
producer (runtime observer hooks, replay engines, the distributed
delta-merge view) can feed this checker unchanged.  A blocked status is immutable
while published (the task observer's core insight), therefore one
status contributes a *fixed* WFG edge group computable at publication:

* out-edges ``task -> t2`` for every ``t2`` impeding an event ``task``
  waits on, found through a phase-bucketed registration index;
* in-edges ``t1 -> task`` for every already-blocked ``t1`` waiting on an
  event ``task`` impedes, found through an awaited-events index.

Withdrawal removes the task's vertex and (only) its incident edges —
sound because every WFG edge needs both endpoints blocked, so no other
pair's edge can depend on the withdrawn status.

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
pointwise.  A per-epoch cache skips even the fallback when the state
has not changed since the last extraction (a detection monitor polling
a stable deadlock).

The checker inherits the classic one's :class:`~repro.core.dependency.
ResourceDependency` store, so generation stamping, ``is_current``
revalidation and the avoidance restore path all keep their semantics.

**Foreign writes.**  Some producers (the PL interpreter's re-publish
loop, sites sharing one store across checkers) write to the dependency
store directly instead of through the checker surface.  Every query
therefore fingerprints the store (generation counter + blocked count)
against the delta state and, on mismatch, *resynchronises* — a full
O(N) rebuild of indexes and graph, paid only when something bypassed
the delta surface.  The one write the fingerprint cannot see is a
direct ``dependency.restore`` of an already-blocked task (same count,
no new generation); all in-tree restore flows go through
:meth:`restore`, which is delta-aware.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.checker import DeadlockChecker, snapshot_components
from repro.core.dependency import DependencySnapshot, ResourceDependency
from repro.core.events import BlockedStatus, Event, PhaserId, TaskId
from repro.core.report import DeadlockReport
from repro.core.scc import make_dynamic_scc
from repro.core.selection import (
    DEFAULT_THRESHOLD_FACTOR,
    GraphModel,
    select_shard_model,
)
from repro.obs.registry import MetricsRegistry


class IncrementalChecker(DeadlockChecker):
    """A :class:`DeadlockChecker` whose graph state is delta-maintained.

    Drop-in compatible: same constructor, same mutation and query
    surface, same reports.  Differences are operational only —

    * :meth:`check`/:meth:`check_sharded` with no explicit snapshot run
      against the live delta state (O(1) when acyclic) instead of
      snapshotting;
    * :attr:`stats` records the maintained WFG's edge count (model
      ``WFG``) for fast-path checks, since no per-model graph is built
      on that path.

    Passing an explicit ``snapshot`` bypasses the incremental state and
    behaves exactly like the parent class (offline ablations over
    foreign snapshots keep working).
    """

    def __init__(
        self,
        model: GraphModel = GraphModel.AUTO,
        threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
        dependency: Optional[ResourceDependency] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(model, threshold_factor, dependency, metrics=metrics)
        # Incremental-path instruments live next to the check
        # instruments, in ``self.metrics``.
        self._m_deltas = self.metrics.counter(
            "repro_incremental_delta_ops_total",
            "Delta operations applied to the maintained graph state.",
            labels=("op",),
        )
        self._m_resyncs = self.metrics.counter(
            "repro_incremental_resyncs_total",
            "Full rebuilds forced by writes that bypassed the delta "
            "surface.",
        )
        self._m_fallbacks = self.metrics.counter(
            "repro_incremental_fallback_checks_total",
            "Cyclic-state checks answered through the classic "
            "snapshot-and-rebuild path (SG/AUTO models).",
        )
        # Volatile: visit counts follow set/dict iteration order, which
        # varies with each process's string-hash seed — work measures,
        # like timings, are excluded from the deterministic snapshot.
        scc_work = self.metrics.counter(
            "repro_scc_work_total",
            "DynamicSCC maintenance work, mirrored from the structure's "
            "own counters at each check.",
            labels=("kind",), volatile=True,
        )
        self._m_scc_work = [
            scc_work.labels(kind=kind)
            for kind in ("extractions", "pk_visits", "resolves")
        ]
        # What :meth:`sync_metrics` has published of each so far (None:
        # nothing yet — the first publication makes the series appear).
        self._scc_published: List[Optional[int]] = [None, None, None]
        # One lock orders all delta applications and live-state queries;
        # re-entrant because the avoidance path mutates while holding it.
        self._delta_lock = threading.RLock()
        # The compiled kernel when built (see repro.core._native), the
        # pure-Python structure otherwise — interchangeable by contract.
        self._scc = make_dynamic_scc()
        self._statuses: Dict[TaskId, BlockedStatus] = {}
        # phaser -> local phase -> tasks registered there (blocked only).
        self._phases: Dict[PhaserId, Dict[int, Set[TaskId]]] = {}
        # phaser -> awaited event -> blocked tasks waiting on it.
        self._awaited: Dict[PhaserId, Dict[Event, Set[TaskId]]] = {}
        self._cached_epoch = -1
        self._cached_report: Optional[DeadlockReport] = None
        # Fingerprint of the store state the delta state mirrors: the
        # highest generation this checker stamped plus its own status
        # count.  A store whose (generation, count) disagrees was
        # written behind our back — resync before answering.
        self._my_generation = self.dependency.generation

    def _maybe_resync(self) -> None:
        """Rebuild the delta state if the store was written directly.

        Caller holds ``_delta_lock``.  Cheap (two counter reads) when
        nothing bypassed the delta surface — the overwhelmingly common
        case; O(statuses) when something did.
        """
        if (
            self.dependency.generation == self._my_generation
            and self.dependency.blocked_count() == len(self._statuses)
        ):
            return
        self._m_resyncs.inc()
        # A resync is a bulk application by nature — one batched
        # maintenance pass, exactly like an apply_batch of the whole
        # snapshot (the live monitor's recovery path rides this too).
        self._scc.begin_batch()
        try:
            for task in list(self._statuses):
                self._retract(task)
            snapshot = self.dependency.snapshot()
            for task, status in snapshot.statuses.items():
                self._insert(task, status)
        finally:
            self._scc.end_batch()
        self._my_generation = self.dependency.generation

    # ------------------------------------------------------------------
    # delta application (the mutation surface of the delta contract)
    # ------------------------------------------------------------------
    def set_blocked(self, task: TaskId, status: BlockedStatus) -> BlockedStatus:
        with self._delta_lock:
            self._maybe_resync()
            self._m_deltas.inc(op="set_blocked")
            stamped = super().set_blocked(task, status)
            if task in self._statuses:
                self._retract(task)
            self._insert(task, stamped)
            self._my_generation = stamped.generation
            return stamped

    def clear(self, task: TaskId) -> None:
        with self._delta_lock:
            self._maybe_resync()
            self._m_deltas.inc(op="clear")
            super().clear(task)
            if task in self._statuses:
                self._retract(task)

    def restore(self, task: TaskId, status: BlockedStatus) -> None:
        with self._delta_lock:
            self._maybe_resync()
            self._m_deltas.inc(op="restore")
            super().restore(task, status)
            if task in self._statuses:
                self._retract(task)
            self._insert(task, status)

    def apply_batch(self, ops) -> None:
        """Apply an ordered delta sequence with one maintenance pass.

        ``ops`` is a sequence of ``(op, task, status)`` tuples, ``op``
        one of ``"set"``/``"clear"``/``"restore"`` (``status`` is
        ignored for ``"clear"``).  Equivalent — same final state, same
        subsequent verdicts and reports, same
        ``repro_incremental_delta_ops_total`` totals — to calling
        :meth:`set_blocked`/:meth:`clear`/:meth:`restore` once per op,
        but the whole batch pays one lock acquisition, one foreign-write
        resync check, one metrics flush, and (via
        :meth:`~repro.core.scc.DynamicSCC.begin_batch`) one scoped
        SCC resolution per affected component instead of per-edge
        Pearce-Kelly passes.
        """
        if not ops:
            return
        tallies = {"set_blocked": 0, "clear": 0, "restore": 0}
        with self._delta_lock:
            self._maybe_resync()
            scc = self._scc
            statuses = self._statuses
            scc.begin_batch()
            try:
                for op, task, status in ops:
                    if op == "set":
                        tallies["set_blocked"] += 1
                        stamped = super().set_blocked(task, status)
                        if task in statuses:
                            self._retract(task)
                        self._insert(task, stamped)
                        self._my_generation = stamped.generation
                    elif op == "clear":
                        tallies["clear"] += 1
                        super().clear(task)
                        if task in statuses:
                            self._retract(task)
                    elif op == "restore":
                        tallies["restore"] += 1
                        super().restore(task, status)
                        if task in statuses:
                            self._retract(task)
                        self._insert(task, status)
                    else:
                        raise ValueError(f"unknown batch op {op!r}")
            finally:
                scc.end_batch()
                # Flushed even on a failing op: the per-op path counts
                # before applying, so a partial batch accounts the same.
                for name, count in tallies.items():
                    if count:
                        self._m_deltas.inc(count, op=name)

    def _insert(self, task: TaskId, status: BlockedStatus) -> None:
        """Fold one newly published status into graph and indexes."""
        self._statuses[task] = status
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

    def _retract(self, task: TaskId) -> None:
        """Withdraw a status: drop the vertex and its incident edges."""
        status = self._statuses.pop(task)
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
        model: Optional[GraphModel] = None,
    ) -> Optional[DeadlockReport]:
        if snapshot is not None or model is not None:
            return super().check(
                snapshot=snapshot, revalidate=revalidate, model=model
            )
        t0 = time.perf_counter()
        with self._delta_lock:
            self._maybe_resync()
            if not self._scc.has_cycle():
                self._record(t0, None, GraphModel.WFG, self._scc.edge_count)
                return None
            epoch = self._scc.mutation_epoch
            if epoch == self._cached_epoch:
                report = self._cached_report
                self._record(t0, report, GraphModel.WFG, self._scc.edge_count)
                return report
            if self.model is GraphModel.WFG:
                # Incremental extraction: the maintained WFG *is* the
                # analysis graph under this model, so the canonical
                # cycle comes straight from the component partition —
                # no snapshot, no rebuild.
                report = self._extract_wfg_report(t0, revalidate)
            else:
                self._m_fallbacks.inc()
                snapshot = self._current_snapshot()
                report = super().check(snapshot=snapshot, revalidate=revalidate)
            self._cached_epoch = epoch
            self._cached_report = report
            return report

    def _extract_wfg_report(
        self, t0: float, revalidate: bool
    ) -> Optional[DeadlockReport]:
        """Assemble the WFG-model report from the maintained state.

        The cycle comes from the (epoch-cached) partition extraction;
        assembly and revalidation run the classic checker's own code
        (:meth:`_wfg_report`, :meth:`_still_current`) over the
        maintained statuses, so the two paths cannot drift.  Caller
        holds ``_delta_lock`` and has established that a cycle exists.
        """
        cycle = self._scc.extract_cycle()
        report: Optional[DeadlockReport] = self._wfg_report(
            self._statuses, cycle, self._scc.edge_count, avoided=False
        )
        if revalidate and not self._still_current(
            DependencySnapshot(statuses=self._statuses), report
        ):
            report = None
        self._record(t0, report, GraphModel.WFG, self._scc.edge_count)
        return report

    def check_sharded(
        self,
        snapshot=None,
        revalidate: bool = False,
    ) -> List[DeadlockReport]:
        if snapshot is not None:
            return super().check_sharded(snapshot=snapshot, revalidate=revalidate)
        t0 = time.perf_counter()
        with self._delta_lock:
            self._maybe_resync()
            if not self._scc.has_cycle():
                self._record(t0, None, GraphModel.WFG, self._scc.edge_count)
                return []
            # Cyclic: shard like the parent (the snapshot only supplies
            # connectivity and ordering), but answer WFG-model shards
            # straight from the maintained partition — no per-shard
            # graph rebuild.  WFG edges are pair-local and require a
            # shared phaser, so the maintained graph restricted to a
            # shard equals the shard's rebuilt WFG, and every cyclic
            # component lies wholly inside one shard.
            snapshot = self._current_snapshot()
            reports: List[DeadlockReport] = []
            for shard in snapshot_components(snapshot):
                model = select_shard_model(len(shard), self.model)
                if model is GraphModel.WFG:
                    report = self._check_wfg_shard(shard, revalidate)
                else:
                    # SG/AUTO shards still need the built graph (the
                    # chosen model depends on it) — classic per-shard
                    # path, identical to the parent's.
                    self._m_fallbacks.inc()
                    report = super().check(
                        snapshot=shard, revalidate=revalidate, model=model
                    )
                if report is not None:
                    reports.append(report)
            return reports

    def _check_wfg_shard(
        self, shard: DependencySnapshot, revalidate: bool
    ) -> Optional[DeadlockReport]:
        """One WFG-model shard answered from the maintained partition.

        Mirrors :meth:`_extract_wfg_report` scoped to the shard's tasks:
        scoped canonical extraction
        (:meth:`~repro.core.scc.DynamicSCC.extract_cycle_within`), the
        induced edge count for stats parity with a rebuild, and the
        classic assembly/revalidation code over the shard's statuses.
        Caller holds ``_delta_lock``.
        """
        t0 = time.perf_counter()
        tasks = set(shard.statuses)
        edge_count = self._scc.edges_within(tasks)
        cycle = self._scc.extract_cycle_within(tasks)
        report: Optional[DeadlockReport] = None
        if cycle is not None:
            report = self._wfg_report(
                shard.statuses, cycle, edge_count, avoided=False
            )
            if revalidate and not self._still_current(shard, report):
                report = None
        self._record(t0, report, GraphModel.WFG, edge_count)
        return report

    def check_before_block(
        self, task: TaskId, status: BlockedStatus
    ) -> Tuple[Optional[DeadlockReport], Optional[BlockedStatus]]:
        with self._avoidance_lock, self._delta_lock:
            t0 = time.perf_counter()
            prior = self.dependency.get(task)
            stamped = self.set_blocked(task, status)  # resyncs + applies
            if not self._scc.has_cycle():
                # Fast accept: publishing this status created no cycle,
                # so blocking cannot complete a deadlock.
                self._record(t0, None, GraphModel.WFG, self._scc.edge_count)
                return None, stamped
            # Slow path: the classic refusal, shared with the parent —
            # restore/clear route through the delta-aware overrides.
            return self._finish_avoidance(t0, task, status, prior, stamped)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def sync_metrics(self) -> None:
        """Publish :class:`DynamicSCC`'s plain work counters into obs.

        Each counter is published as the *difference* since it was last
        published — three int compares when nothing moved — so checkers
        sharing a registry sum instead of overwriting one another.
        Runs on every ``_record`` (live exporters are at most one check
        stale) and is the hook a replay engine calls at the end of a
        run, catching deltas applied after the final check.
        """
        scc = self._scc
        published = self._scc_published
        # Read-then-add must not interleave with another caller's (a
        # check of an explicit snapshot records outside the delta lock).
        with self._delta_lock:
            for i, now in enumerate((scc.extractions, scc.pk_visits, scc.resolves)):
                if now != published[i]:
                    self._m_scc_work[i].inc(now - (published[i] or 0))
                    published[i] = now

    def _record(self, t0, report, model_used, edge_count,
                sg_aborted: bool = False) -> None:
        self.sync_metrics()
        super()._record(t0, report, model_used, edge_count,
                        sg_aborted=sg_aborted)

    # ------------------------------------------------------------------
    # introspection (tests, benchmarks)
    # ------------------------------------------------------------------
    @property
    def wfg_edge_count(self) -> int:
        """Edges of the maintained Wait-For Graph."""
        with self._delta_lock:
            return self._scc.edge_count

    @property
    def mutation_epoch(self) -> int:
        """Global delta counter (see :attr:`DynamicSCC.mutation_epoch`)."""
        with self._delta_lock:
            return self._scc.mutation_epoch

    @property
    def incremental_extractions(self) -> int:
        """Scoped cycle extractions computed (WFG model; cache misses)."""
        with self._delta_lock:
            return self._scc.extractions

    def maintained_graph(self):
        """Materialise the maintained WFG (differential tests)."""
        with self._delta_lock:
            return self._scc.to_digraph()
