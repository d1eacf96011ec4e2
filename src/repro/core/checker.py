"""The deadlock checker: Armus' verification-layer entry point (Section 5.1).

The checker owns a :class:`~repro.core.dependency.ResourceDependency`
(updated by the application layer on every block/unblock), builds the
analysis graph under the configured model selection, runs cycle detection,
and assembles :class:`~repro.core.report.DeadlockReport` evidence.

Two usage patterns map to the paper's two verification modes:

* **detection** — a monitor periodically calls :meth:`DeadlockChecker.check`
  on a snapshot; found cycles are re-validated against the live statuses to
  discard unblock races, then reported;
* **avoidance** — a task about to block calls
  :meth:`DeadlockChecker.check_before_block`, which tentatively publishes
  the status and reports whether blocking would complete a cycle; on a hit
  the status is withdrawn and the caller raises
  :class:`~repro.core.report.DeadlockAvoidedError` instead of blocking.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Mapping, Optional

from repro.core.cycles import _vertex_key, cycle_through, find_cycle
from repro.core.dependency import DependencySnapshot, ResourceDependency
from repro.core.events import BlockedStatus, Event, TaskId
from repro.core.report import DeadlockReport
from repro.core.selection import (
    DEFAULT_THRESHOLD_FACTOR,
    GraphBuildResult,
    GraphModel,
    build_graph,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)

_SG = GraphModel.SG


class CheckStats:
    """Accounting across checks — the source of Table 3's edge counts.

    A recorder-and-reader over one :class:`~repro.obs.registry.
    MetricsRegistry` and nothing else: :meth:`record` tallies one check
    for the registry's check instruments, the properties read them back.
    It owns no count, so its numbers are the *registry's* — every
    checker recording into that registry included.  To aggregate, fold
    registries (:meth:`~repro.obs.registry.MetricsRegistry.merge`, the
    only fold) and read ``CheckStats(total)``.  Latency p50/p95/max are
    derived from histogram bucket counts.

    All aggregates are *streaming* (count / sum / max plus per-model
    and bucket counts): memory stays O(1) no matter how long the run,
    which is what lets a detection monitor — or a million-event trace
    replay — run indefinitely without the stats object growing.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        if metrics is not None and metrics.enabled:
            self.metrics = metrics
        else:
            # The live runtime's default is the no-op registry, and its
            # checker's stats must still count: the one private fallback.
            self.metrics = MetricsRegistry()
        reg = self.metrics
        self._checks = reg.counter(
            "repro_checks_total",
            "Deadlock checks run, by graph model analysed.",
            labels=("model",),
        )
        self._cycles = reg.counter(
            "repro_check_cycles_found_total", "Checks that found a cycle."
        )
        self._sg_aborts = reg.counter(
            "repro_check_sg_aborts_total",
            "Adaptive-mode checks whose SG build aborted past the "
            "threshold and fell back to the WFG.",
        )
        self._edges = reg.histogram(
            "repro_check_edges",
            "Analysis-graph edges per check.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._latency = reg.histogram(
            "repro_check_duration_seconds",
            "Wall-clock duration of one deadlock check.",
            buckets=DEFAULT_LATENCY_BUCKETS_S,
            volatile=True,
        )
        # This runs on the incremental checker's O(1) path: a check is
        # plain-number bumps, published when the registry is read.
        self._lock = threading.Lock()
        self._tally = tally = reg.tally(
            self._lock,
            counters=[self._checks.labels(model=m.value) for m in (GraphModel.WFG, _SG)]
            + [self._cycles.labels(), self._sg_aborts.labels()],
            histograms=[self._edges.labels(), self._latency.labels()],
        )
        self._counts = tally.counts
        self._edges_seen, self._latency_seen = tally.hists

    def record(self, model_used: GraphModel, edge_count: int, dt_s: float,
               found_cycle: bool, sg_aborted: bool = False) -> None:
        """Fold one check into the aggregates."""
        with self._lock:
            counts = self._counts
            # Slots: WFG, SG (a check analyses one), cycles, SG aborts.
            counts[model_used is _SG] += 1
            if found_cycle:
                counts[2] += 1
            if sg_aborted:
                counts[3] += 1
            self._edges_seen.observe(edge_count)
            self._latency_seen.observe(dt_s)

    # -- read back from the instruments --------------------------------
    @property
    def checks(self) -> int:
        return self._checks.total()

    @property
    def cycles_found(self) -> int:
        return self._cycles.value()

    @property
    def sg_aborts(self) -> int:
        return self._sg_aborts.value()

    @property
    def edges_total(self) -> int:
        return self._edges.sum_of()

    @property
    def edges_max(self) -> int:
        """Largest analysis graph seen across all checks."""
        return self._edges.max_of()

    @property
    def model_counts(self) -> Dict[GraphModel, int]:
        """How often each concrete graph model was analysed."""
        return {
            GraphModel(values[0]): count
            for values, count in self._checks.per_label().items()
        }

    @property
    def total_time_s(self) -> float:
        return self._latency.sum_of()

    @property
    def mean_edges(self) -> float:
        """Average number of edges per check (Table 3's "Edges" row)."""
        checks = self._edges.count_of()
        if not checks:
            return 0.0
        return self._edges.sum_of() / checks

    # -- latency quantiles (bucket resolution; max is exact) -----------
    @property
    def p50_latency_s(self) -> float:
        return self._latency.quantile(0.50)

    @property
    def p95_latency_s(self) -> float:
        return self._latency.quantile(0.95)

    @property
    def max_latency_s(self) -> float:
        return self._latency.max_of()


class DeadlockChecker:
    """Builds graphs from blocked statuses and finds deadlock cycles.

    Parameters
    ----------
    model:
        Graph-model selection mode (fixed WFG, fixed SG, or adaptive).
    threshold_factor:
        SG-abort threshold for adaptive mode (Section 5.1; default 2).
    dependency:
        The blocked-status store; a fresh one is created when omitted.
        Sharing one store among several checkers is how distributed sites
        analyse a global view.
    metrics:
        An enabled :class:`~repro.obs.registry.MetricsRegistry` is
        where the checker records — visible to live exporters, and
        summed with whatever else records there (:attr:`stats` then
        reads the registry's totals, not this checker's share).
        Omitted or disabled, :class:`CheckStats` keeps a private
        registry — behaviour is identical either way.
    """

    def __init__(
        self,
        model: GraphModel = GraphModel.AUTO,
        threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
        dependency: Optional[ResourceDependency] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.model = model
        self.threshold_factor = threshold_factor
        self.dependency = dependency if dependency is not None else ResourceDependency()
        self.stats = CheckStats(metrics=metrics)
        #: Where this checker's instruments live: the registry passed as
        #: ``metrics`` when enabled, else the stats' private one.
        self.metrics = self.stats.metrics
        # Serialises avoidance checks: two tasks blocking concurrently must
        # not both conclude "no cycle yet" for a cycle they jointly create.
        self._avoidance_lock = threading.Lock()

    # ------------------------------------------------------------------
    # blocked-status bookkeeping (delegated to the dependency store)
    # ------------------------------------------------------------------
    def set_blocked(self, task: TaskId, status: BlockedStatus) -> int:
        """Publish ``task``'s blocked status (detection-mode block entry);
        returns the store's write ordinal."""
        return self.dependency.set_blocked(task, status)

    def clear(self, task: TaskId) -> None:
        """Withdraw ``task``'s blocked status (the task unblocked)."""
        self.dependency.clear(task)

    def apply_batch(self, ops) -> None:
        """Apply an ordered sequence of ``(op, task, status)`` deltas,
        ``op`` one of ``"set"``/``"clear"`` (``status`` is ignored for
        ``"clear"``), under the store's lock: a concurrent check sees
        the whole batch or none of it, whatever the checker class."""
        with self.dependency._lock:
            for op, task, status in ops:
                if op == "set":
                    self.set_blocked(task, status)
                elif op == "clear":
                    self.clear(task)
                else:
                    raise ValueError(f"unknown batch op {op!r}")

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check(
        self,
        snapshot: Optional[DependencySnapshot] = None,
        revalidate: bool = False,
    ) -> Optional[DeadlockReport]:
        """Analyse ``snapshot`` (or a fresh one) for a deadlock cycle.

        With ``revalidate=True`` (detection mode), a found cycle is only
        reported if every involved task is still blocked with the very
        status that produced the cycle — eliminating false positives from
        tasks that unblocked after the snapshot was taken.
        """
        t0 = time.perf_counter()
        if snapshot is None:
            snapshot = self.dependency.snapshot()
        if snapshot.is_empty():
            self._record(t0, None, GraphModel.WFG if self.model is GraphModel.WFG else _SG, 0)
            return None
        built = build_graph(snapshot, self.model, self.threshold_factor)
        return self._verdict(t0, revalidate, *self._analysis(snapshot, built))

    def check_before_block(
        self, task: TaskId, status: BlockedStatus
    ) -> Optional[DeadlockReport]:
        """Avoidance-mode check at block entry.

        Tentatively publishes ``status`` for ``task`` and analyses the
        resulting state.  Returns the report when blocking would
        deadlock — the status has been withdrawn and the caller must raise
        instead of blocking.  Returns ``None`` when it is safe to block —
        the status stays published and the caller proceeds to wait
        (clearing it on wake-up).

        Under :attr:`GraphModel.AUTO` the cheapest sound analysis of one
        block is no graph at all: while the store knows its content was
        acyclic before this publication, a cycle can only run through
        the new status, and the store decides that by a search from it
        (:meth:`ResourceDependency.vet_block`).  A graph is built only
        when that search finds a path — to supply the refusal's
        evidence — or when the store cannot vouch for the state before.
        Fixed ``WFG``/``SG`` build their graph on every check; they are
        the reference the search is tested against.
        """
        with self._avoidance_lock:
            t0 = time.perf_counter()
            prior = self.dependency.get(task)
            written = self.dependency.set_blocked(task, status)
            if self.model is GraphModel.AUTO:
                examined = self.dependency.vet_block(task, written)
                if examined is not None:
                    # Events were the vertices walked, edges examined
                    # the work done: no graph exists to size.
                    self._record(t0, None, GraphModel.SG, examined)
                    return None
            return self._finish_avoidance(t0, task, status, prior, written)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _finish_avoidance(
        self,
        t0: float,
        task: TaskId,
        status: BlockedStatus,
        prior: Optional[BlockedStatus],
        written: int,
    ) -> Optional[DeadlockReport]:
        """The vet-after-publication half of :meth:`check_before_block`.

        Split out so a cheaper verdict can be interposed between
        publication and this full analysis (the store's search under
        ``AUTO``, the incremental checker's maintained graph) while
        sharing the refusal path verbatim.  Caller holds
        ``_avoidance_lock`` and has already published ``status`` as the
        store's write ``written``.

        Either outcome tells the store its content is acyclic again —
        the whole graph was searched, or the one offending status was
        taken back — which is what lets the next check skip this path.
        """
        as_of = self.dependency.edge_writes()
        snapshot = self.dependency.snapshot()
        built = build_graph(snapshot, self.model, self.threshold_factor)
        cycle = self._cycle_for_avoidance(task, status, built)
        if cycle is None:
            self.dependency.confirm_acyclic(as_of)
            self._record(t0, None, built.model_used, built.edge_count,
                         sg_aborted=built.sg_aborted)
            return None
        # Withdraw the doomed status; if the caller was already
        # blocked elsewhere (re-entrant or multi-wait usage), its
        # previous status goes back — the same object, so a revalidation
        # in flight against it still passes.
        if prior is not None:
            self.set_blocked(task, prior)
        else:
            self.clear(task)
        self.dependency.confirm_withdrawn(written, restored=prior is not None)
        report = self._report_from_cycle(snapshot, built, cycle, avoided=True)
        self._record(t0, report, built.model_used, built.edge_count,
                     sg_aborted=built.sg_aborted)
        return report

    def _cycle_for_avoidance(
        self, task: TaskId, status: BlockedStatus, built: GraphBuildResult
    ):
        """Find the cycle the new block would create.

        Since every block is vetted, a cycle can only appear through the
        blocking task's own vertex (WFG) or one of its waited events (SG);
        falling back to a whole-graph search keeps the check conservative
        even if earlier statuses were published without vetting (mixed
        detection/avoidance deployments).
        """
        if built.model_used is GraphModel.WFG:
            cycle = cycle_through(built.graph, task)
        else:
            # Canonical order, not frozenset order: which waited event
            # anchors the cycle must not depend on the hash seed, or
            # parallel avoidance replay diverges from serial.
            cycle = None
            for event in sorted(status.waits, key=lambda e: (str(e.phaser), e.phase)):
                cycle = cycle_through(built.graph, event)
                if cycle is not None:
                    break
        if cycle is None:
            cycle = find_cycle(built.graph)
        return cycle

    @staticmethod
    def _wfg_report(
        statuses: Mapping[TaskId, BlockedStatus],
        cycle: list,
        edge_count: int,
        avoided: bool,
    ) -> DeadlockReport:
        """Assemble a WFG-model report from a task cycle.

        The one assembly rule for WFG evidence — shared by the classic
        built-graph path and the incremental checker's maintained-state
        extraction, so the two can never drift apart field by field.
        """
        tasks = tuple(dict.fromkeys(cycle[:-1]))
        events: list[Event] = []
        for t in tasks:
            events.extend(sorted(statuses[t].waits))
        return DeadlockReport(
            tasks=tasks,
            events=tuple(dict.fromkeys(events)),
            cycle=tuple(cycle),
            model_used=GraphModel.WFG,
            edge_count=edge_count,
            avoided=avoided,
        )

    def _report_from_cycle(
        self,
        snapshot: DependencySnapshot,
        built: GraphBuildResult,
        cycle: list,
        avoided: bool,
    ) -> DeadlockReport:
        """Translate a graph cycle into task/event evidence."""
        if built.model_used is GraphModel.WFG:
            return self._wfg_report(
                snapshot.statuses, cycle, built.edge_count, avoided
            )
        events_t = tuple(dict.fromkeys(cycle[:-1]))
        event_set = set(events_t)
        # The waiting tasks in canonical order: a report is a function
        # of the blocked set, not of the order the table filled in.
        tasks = tuple(sorted(
            (t for t, s in snapshot.statuses.items()
             if not s.waits.isdisjoint(event_set)),
            key=_vertex_key,
        ))
        return DeadlockReport(
            tasks=tasks,
            events=events_t,
            cycle=tuple(cycle),
            model_used=built.model_used,
            edge_count=built.edge_count,
            avoided=avoided,
        )

    def _analysis(self, snapshot: DependencySnapshot, built: GraphBuildResult):
        """The :meth:`_verdict` arguments after ``t0, revalidate`` for
        one built graph: its answer before revalidation (what the
        incremental checker caches per epoch)."""
        cycle = find_cycle(built.graph)
        report = None
        if cycle is not None:
            report = self._report_from_cycle(snapshot, built, cycle, avoided=False)
        return snapshot, report, built.model_used, built.edge_count, built.sg_aborted

    def _verdict(self, t0: float, revalidate: bool, snapshot, report,
                 model_used, edge_count, sg_aborted=False):
        """Revalidate ``report`` against ``snapshot`` when asked, record
        the check under the model actually analysed, return the answer."""
        if report is not None and revalidate and not self._still_current(snapshot, report):
            report = None
        self._record(t0, report, model_used, edge_count, sg_aborted=sg_aborted)
        return report

    def _still_current(
        self, snapshot: DependencySnapshot, report: DeadlockReport
    ) -> bool:
        """Re-validate that every task in the report is still blocked."""
        for t in report.tasks:
            status = snapshot.statuses.get(t)
            if status is None or not self.dependency.is_current(t, status):
                return False
        return True

    def _record(self, t0: float, report: Optional[DeadlockReport],
                model_used: GraphModel, edge_count: int,
                sg_aborted: bool = False) -> None:
        self.stats.record(model_used, edge_count, time.perf_counter() - t0,
                          report is not None, sg_aborted=sg_aborted)
