"""Offline replay: stream a trace back through the deadlock checker.

Replay turns the live verifier into a batch engine: the recorded
blocked-status stream is re-applied to a fresh checker in record
order, producing
the same :class:`~repro.core.report.DeadlockReport` evidence the live
run produced — but deterministically (no scheduler, no monitor timing)
and at memory bandwidth rather than thread speed.

Two replay modes mirror the paper's verification modes:

* **detection** — ``block``/``unblock`` records update the dependency
  store and a check runs after every state change (``check_every``
  raises the cadence for throughput runs).  Reports are de-duplicated by
  task set, exactly like a :class:`~repro.distributed.site.Site` does,
  so a persisting deadlock is reported once.
* **avoidance** — every ``block`` record is vetted with
  ``check_before_block`` before being published, reproducing the
  refuse-instead-of-block behaviour offline.  Distributed traces
  (``publish_delta`` records) carry site publications, not vettable
  individual blocks, so avoidance replay rejects them with
  :class:`ValueError`.

``publish_delta`` records (the delta protocol: per-site sequence
numbers, ``set``/``clear`` ops, snapshot checkpoints) switch
detection to the distributed view: once any site publication has been
seen, checks analyse the merged global store state instead of the local
dependency — the one-phase algorithm of Section 5.2, replayed.  That
view is a :class:`~repro.distributed.delta.DeltaMergeState`, the same
consumer the live distributed checker runs, so offline and live
derivations cannot drift apart; a sequence gap inside a trace is a
recording bug and raises
:class:`~repro.distributed.delta.DeltaSequenceError`.

``register``/``advance`` records are context only (a blocked status is
self-contained) and are skipped, but counted towards throughput.

There is **one run loop**, :func:`replay`; the *engine* is the checker
class it instantiates.  ``block``/``unblock`` records queue ``(op,
task, status)`` deltas that reach a ``local`` checker through
``apply_batch`` at each cadence point; publications reach a ``remote``
checker through the merge view, which feeds ``apply_batch`` too and is
the checker's ``snapshot_source``.  The default engine is the
maintained :class:`~repro.core.incremental.IncrementalChecker`: it keeps
the analysis graph under the deltas, so checks cost O(1) while it is
acyclic and a ``check_every=1`` replay of an N-task trace is O(N)
overall.  ``incremental=False`` (CLI ``--from-scratch``) runs its base
class, the paper's :class:`~repro.core.checker.DeadlockChecker`, which
rebuilds the graph from a snapshot at every cadence point — O(N²) at
``check_every=1``, kept as the reference the maintained engine is
diffed against: reports are byte-identical (pinned by the regression
corpus and CI).  Everything around the two classes is literally the
same code, which is what makes replaying one input through both a
differential test of the checkers.

Replay consumes its input one record at a time: records are never
materialised into a list, and a path is opened with
:func:`~repro.trace.stream.iter_load`, so a file of any length replays
in O(frame) memory.

Replay keeps the report contract of every other consumer (the live
runtime, :class:`~repro.distributed.site.Site`, the service): a check
analyses the whole state under one model selection and returns the
*canonical* cycle — the one through the globally minimal vertex.  When
two independent deadlocks persist at once, a check reports only the
canonical one; the other is masked, not lost, and is reported at the
first check after the canonical cycle clears.  Deadlocks that close
and clear between two cadence points are never seen by a check at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Set, Tuple, Union

from repro.core.checker import CheckStats, DeadlockChecker
from repro.core.incremental import IncrementalChecker
from repro.core.report import DeadlockReport
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaMergeState
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, OriginTracker, attach_provenance
from repro.trace.events import RecordKind, Trace, TraceRecord
from repro.trace.stream import iter_load

#: Replay modes (strings, to stay import-independent of the runtime).
DETECTION = "detection"
AVOIDANCE = "avoidance"

#: ``kind`` label values of ``repro_replay_records_total`` (context =
#: register/advance records, skipped by the engines but counted).
_KIND_NAMES = ("block", "unblock", "publish_delta", "context")

#: Buckets for whole-run replay durations (volatile; excluded from the
#: deterministic snapshot).
_DURATION_BUCKETS_S = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


@dataclass
class ReplayResult:
    """Outcome of one replay run.

    ``reports`` preserves discovery order; ``stats`` reads the checkers'
    accounting (Table 3's quantities, obtainable from a file instead of
    a live run) off ``metrics``.
    """

    mode: str
    reports: List[DeadlockReport] = field(default_factory=list)
    records_processed: int = 0
    checks_run: int = 0
    duration_s: float = 0.0
    #: The run's one registry: both checkers and the engine's own replay
    #: counters record into it from the first record.  Its non-volatile
    #: slice is deterministic — identical across process counts and
    #: hosts for the same trace and settings.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def stats(self) -> CheckStats:
        """Check accounting of the run, both checkers together."""
        return CheckStats(self.metrics)

    @property
    def deadlocked(self) -> bool:
        """Whether the replay surfaced at least one deadlock report."""
        return bool(self.reports)

    @property
    def events_per_sec(self) -> float:
        """Replay throughput over all records (the benchmark's metric)."""
        if self.duration_s <= 0:
            return 0.0
        return self.records_processed / self.duration_s


def check_settings(mode: str, check_every: int) -> None:
    """Refuse a replay setting instead of coercing it: an unknown mode,
    or a cadence that is not a positive ``int`` (``0``, ``-5``,
    ``2.5`` and ``True`` included)."""
    if mode not in (DETECTION, AVOIDANCE):
        raise ValueError(f"unknown replay mode {mode!r}")
    if type(check_every) is not int or check_every < 1:
        raise ValueError(
            f"check_every must be a positive int, got {check_every!r}"
        )


def replay(
    source: Union[Trace, Iterable[TraceRecord], str],
    mode: str = DETECTION,
    model: GraphModel = GraphModel.AUTO,
    check_every: int = 1,
    incremental: bool = True,
    tracer=NULL_TRACER,
    stream: object = None,
) -> ReplayResult:
    """Replay a trace, record iterable or path through fresh checkers.

    Parameters
    ----------
    source:
        A :class:`Trace`, any record iterable (including a
        :class:`~repro.trace.stream.StreamedTrace`) or a path, opened
        with :func:`~repro.trace.stream.iter_load`: records are consumed
        one at a time, never materialised, so a file of any length
        replays in O(frame) memory.
    mode:
        ``"detection"`` or ``"avoidance"``.
    model:
        Forwarded to the checker — replay under a *different* graph
        model than the live run is explicitly supported (offline model
        ablations over one recording).  The SG-abort threshold is the
        paper's factor,
        :data:`~repro.core.selection.DEFAULT_THRESHOLD_FACTOR`.
    check_every:
        Detection-mode check cadence in state-changing records, a
        positive ``int`` (default 1: check after every change, the
        strongest — and deterministic — setting).
    incremental:
        ``True`` (the default) runs the maintained
        :class:`~repro.core.incremental.IncrementalChecker`; ``False``
        the from-scratch reference
        :class:`~repro.core.checker.DeadlockChecker` (see the module
        docstring).  Reports are identical; only the cost model changes.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer` receiving check and
        report events keyed by record ordinals (deterministic, so the
        reconstructed timeline is bit-identical across replays).  The
        default :data:`~repro.obs.tracing.NULL_TRACER` costs one
        attribute read per check.
    stream:
        Accepted and ignored.  It stands in for the two calls in
        ``benchmarks/e2e/workloads.py`` (``replay_ring`` and
        ``replay_churn``) that still pass ``stream=True``, and goes
        with them.

    Every run creates one :class:`~repro.obs.registry.MetricsRegistry`
    up front and hands it to both checkers; the loop's own counters land
    in the same object at the end, and it is the result's ``metrics``.

    Whatever the tracer, every surfaced report gets **provenance**
    attached: per-edge record origins, the detection lag in record
    ordinals, and the reporting check's ordinal — one
    :class:`~repro.obs.tracing.OriginTracker` fold, whatever the engine.
    """
    check_settings(mode, check_every)
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        source = iter_load(source)
    records = source.records if isinstance(source, Trace) else source
    # Streamed binary traces offer the iteration replay reads: frames
    # are scanned zero-copy and context records (register/advance)
    # come back as slotted ContextRecords, not frozen TraceRecords.
    lazy = getattr(records, "lazy_records", None)
    if lazy is not None:
        records = lazy()
    avoidance = mode == AVOIDANCE
    # The engine is the checker class; everything below is shared.
    engine = IncrementalChecker if incremental else DeadlockChecker
    # Two checkers, two views: ``local`` accumulates block/unblock
    # records, ``remote`` the merged site publications.  Once any
    # publication has been seen, detection queries ``remote`` only.
    # Both record into the run's one registry.
    metrics = MetricsRegistry()
    local = engine(model=model, metrics=metrics)
    remote = engine(model=model, metrics=metrics)
    merge = DeltaMergeState(remote)
    result = ReplayResult(mode=mode, metrics=metrics)
    seen: Set[frozenset] = set()
    kinds = dict.fromkeys(_KIND_NAMES, 0)
    origins = OriginTracker()
    lags: List[Tuple[int, float]] = []
    publishes_seen = False
    pending = 0
    # Detection-mode local ops queue up between cadence points and
    # reach the checker through one ``apply_batch`` right before the
    # check.  (Avoidance vets each block as it arrives, so its ops
    # stay per-record.)
    local_ops: List[Tuple[str, object, object]] = []
    t0 = time.perf_counter()

    def surface(report: DeadlockReport, statuses) -> None:
        """Enrich one report against the analysed ``statuses`` and keep
        it, in discovery order."""
        enriched, lag_s = attach_provenance(report, origins, statuses)
        lags.append((enriched.detection_lag, lag_s))
        if tracer.enabled:
            tracer.event(
                "deadlock.report",
                "checker",
                ordinal=enriched.detected_at or 0,
                cat="report",
                cycle=" -> ".join(str(v) for v in enriched.cycle),
                detection_lag_records=enriched.detection_lag or 0,
                model=enriched.model_used.value,
            )
        result.reports.append(enriched)

    def detect() -> None:
        if local_ops:
            local.apply_batch(local_ops)
            local_ops.clear()
        if publishes_seen:
            # Cross-site duplication is rejected at *check* time: a
            # transient overlap that resolves before the next cadence
            # point replays fine.
            merge.raise_on_conflict()
            report = remote.check()
        else:
            report = local.check()
        result.checks_run += 1
        if tracer.enabled:
            tracer.event(
                "replay.check", "checker", ordinal=origins.last_ordinal,
                cat="check",
            )
        # A persisting deadlock surfaces the same cycle at every cadence
        # point: only a *fresh* one needs the status view (rebuilding it
        # each time made check_every=1 replays of deadlocked traces
        # quadratic).
        if report is None or report.cycle_key in seen:
            return
        seen.add(report.cycle_key)
        view = (merge.merged_snapshot() if publishes_seen
                else local.dependency.snapshot())
        surface(report, view.statuses)

    processed = 0
    for rec in records:
        processed += 1
        origins.observe(rec)
        kind = rec.kind
        if kind is RecordKind.BLOCK:
            kinds["block"] += 1
            if avoidance:
                report = local.check_before_block(rec.task, rec.status)
                result.checks_run += 1
                if report is not None:
                    # Every refused block is its own report: no
                    # de-duplication in avoidance.
                    statuses = dict(local.dependency.snapshot().statuses)
                    statuses[rec.task] = rec.status
                    surface(report, statuses)
                continue
            local_ops.append(("set", rec.task, rec.status))
            pending += 1
        elif kind is RecordKind.UNBLOCK:
            kinds["unblock"] += 1
            if avoidance:
                local.clear(rec.task)
                continue
            local_ops.append(("clear", rec.task, None))
            pending += 1
        elif kind is RecordKind.PUBLISH_DELTA:
            if avoidance:
                # Avoidance vets individual blocks; a site publication
                # carries no per-block order to vet.  Failing loudly
                # beats replaying a silent wrong verdict.
                raise ValueError(
                    "avoidance replay cannot analyse publish_delta "
                    "records (distributed traces replay in detection "
                    "mode)"
                )
            kinds["publish_delta"] += 1
            merge.apply_obj(rec.site, rec.payload)
            publishes_seen = True
            pending += 1
        else:  # REGISTER / ADVANCE: context only
            kinds["context"] += 1
            continue
        # Avoidance ``continue``s above, so only detection gets here.
        if pending >= check_every:
            pending = 0
            detect()
    # Drain: a trailing state change below the cadence still gets
    # analysed, so lowering the cadence never loses final reports.
    if pending:
        detect()
    result.records_processed = processed
    result.duration_s = time.perf_counter() - t0
    _finish_metrics(result, kinds, lags)
    return result


def _finish_metrics(result: ReplayResult, kinds, lags) -> None:
    """Add the loop's own telemetry to the run registry.

    Engine counters are applied once, from the loop's plain-int
    tallies (zero hot-loop registry cost); the checkers' own tallies
    need nothing here, since any read of the registry folds them.
    Everything here except the duration and seconds-lag histograms is
    deterministic, so the non-volatile snapshot is byte-identical across
    runs and hosts — including the record-ordinal detection-lag
    histogram, which is always created so every snapshot carries the
    family.
    """
    metrics = result.metrics
    recs = metrics.counter(
        "repro_replay_records_total",
        "Trace records consumed by replay, by kind (context = "
        "register/advance records, skipped but counted).",
        labels=("kind",),
    )
    for kind in _KIND_NAMES:
        if kinds[kind]:
            recs.inc(kinds[kind], kind=kind)
    metrics.counter(
        "repro_replay_checks_total",
        "Detection or avoidance checks run by replay.",
    ).inc(result.checks_run)
    metrics.counter(
        "repro_replay_reports_total",
        "Deadlock reports surfaced by replay (after de-duplication).",
    ).inc(len(result.reports))
    metrics.histogram(
        "repro_replay_duration_seconds",
        "Wall-clock duration of one replay run.",
        buckets=_DURATION_BUCKETS_S,
        volatile=True,
    ).observe(result.duration_s)
    lag_records = metrics.histogram(
        "repro_detection_lag_records",
        "Record-ordinal distance from the record that closed a "
        "reported cycle to the check that surfaced it (0 = reported "
        "at the closing record).",
        buckets=DEFAULT_SIZE_BUCKETS,
    )
    lag_seconds = metrics.histogram(
        "repro_detection_lag_seconds",
        "Wall-clock time from the record that closed a reported "
        "cycle to the check that surfaced it.",
        buckets=DEFAULT_LATENCY_BUCKETS_S,
        volatile=True,
    )
    for lag, lag_s in lags:
        lag_records.observe(lag)
        lag_seconds.observe(lag_s)
