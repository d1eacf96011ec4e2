"""Realisability confirmation: predictions the real engine vouches for.

The enumerator's candidates are *optimistic* — the HB model is
deliberately sparse (see :mod:`repro.predict.hb`), so a candidate may
still be unrealisable.  This module closes the loop: every candidate's
witness trace is replayed through the **existing** detection engine,
classic and incremental, and a candidate is reported only when

* both engines find the witness deadlocked,
* both produce identical report lists (the usual engine differential),
* and one of those reports names exactly the candidate's task set.

Soundness is therefore a tested property of the shipped engine, not an
assumption about the predictor: a predicted report *is* an engine
report of a concrete replayable trace.  The prediction re-homes that
report's per-edge :class:`~repro.core.report.EdgeProvenance` onto the
original trace's records (the blocks the candidate was mined from), and
clears ``detection_lag``/``detected_at`` — a prediction has no closing
record in the recorded run; that is the point.

Everything observable is deterministic: candidates are confirmed in
enumeration order, reports and rendering are pure functions of the
trace bytes.  Wall-clock goes only to volatile metrics
(``repro_predict_*_seconds``), never to output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Union

from repro.core.report import DeadlockReport, EdgeProvenance
from repro.core.selection import GraphModel
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER
from repro.predict.candidates import (
    MAX_CANDIDATES,
    BlockInterval,
    Candidate,
    enumerate_candidates,
    extract_intervals,
)
from repro.predict.witness import build_witness
from repro.trace.codec import load_trace
from repro.trace.events import Trace, TraceRecord
from repro.trace.replay import DETECTION, replay

#: PredictResult.outcome values.
MANIFEST = "manifest"  #: the recorded run already deadlocked — nothing to predict
CLEAN = "clean"  #: no realisable candidate survived confirmation
PREDICTED = "predicted"  #: at least one engine-confirmed prediction


@dataclass(frozen=True)
class Prediction:
    """One engine-confirmed prediction."""

    #: The enumerated candidate (intervals in cycle order).
    candidate: Candidate
    #: The confirming engine report, re-homed onto the original trace:
    #: per-edge provenance points at the mined block records,
    #: ``detection_lag``/``detected_at`` cleared.
    report: DeadlockReport
    #: The concrete reordered trace the engines confirmed.
    witness: Trace


@dataclass
class PredictResult:
    """Outcome of predicting over one trace."""

    outcome: str
    records: int = 0
    #: Reports from replaying the *recorded* run (manifest path only).
    manifest_reports: List[DeadlockReport] = field(default_factory=list)
    candidates_scanned: int = 0
    confirmed: List[Prediction] = field(default_factory=list)
    refuted: int = 0
    #: True when an enumeration cap cut the scan short.
    truncated: bool = False
    duration_s: float = 0.0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def predicted(self) -> bool:
        return bool(self.confirmed)


def _rehome_provenance(
    report: DeadlockReport, by_task: Dict[str, BlockInterval]
) -> DeadlockReport:
    """The witness-replay report with origins mapped back to the
    original trace's records (witness ordinals mean nothing outside
    the witness file)."""
    edges: List[EdgeProvenance] = []
    for edge in report.provenance or ():
        source = by_task.get(edge.source_task)
        target = by_task.get(edge.target_task)
        edges.append(edge._replace(
            source_origin=source.origin() if source else edge.source_origin,
            target_origin=target.origin() if target else edge.target_origin,
        ))
    return replace(
        report,
        provenance=tuple(edges) if edges else None,
        detection_lag=None,
        detected_at=None,
    )


class Predictor:
    """The four-stage pipeline over one trace (see package docstring).

    ``max_candidates`` caps the enumerated candidates (the CLI's
    ``--max-candidates``); the cycle-length and DFS-step caps are the
    module constants of :mod:`repro.predict.candidates`.
    ``metrics``/``tracer`` follow the stack-wide conventions (fold into
    a caller registry, guard span emission on ``tracer.enabled``).
    """

    def __init__(
        self,
        max_candidates: int = MAX_CANDIDATES,
        metrics: Optional[MetricsRegistry] = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.max_candidates = max_candidates
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer

    # -- witness confirmation ------------------------------------------
    def _confirm(self, candidate: Candidate, witness: Trace):
        """Replay the witness through both engines; return the matching
        classic report, or None when either engine demurs."""
        classic = replay(witness, mode=DETECTION, model=GraphModel.AUTO,
                         check_every=1)
        incremental = replay(witness, mode=DETECTION, model=GraphModel.AUTO,
                             check_every=1, incremental=True)
        if not classic.deadlocked or not incremental.deadlocked:
            return None
        if classic.reports != incremental.reports:
            return None
        wanted = frozenset(candidate.tasks)
        for report in classic.reports:
            if frozenset(str(t) for t in report.tasks) == wanted:
                return report
        return None

    # -- the pipeline --------------------------------------------------
    def predict(self, source: Union[Trace, str]) -> PredictResult:
        """Predict over one trace (a :class:`Trace` or a path)."""
        if not isinstance(source, Trace):
            source = load_trace(source)
        start = time.perf_counter()
        metrics = self.metrics
        traces_total = metrics.counter(
            "repro_predict_traces_total",
            "Traces scanned by the predictor, by outcome.",
            labels=("outcome",),
        )
        candidates_total = metrics.counter(
            "repro_predict_candidates_total",
            "Near-miss candidates, by confirmation outcome "
            "(every candidate is counted as scanned).",
            labels=("outcome",),
        )
        witness_records = metrics.histogram(
            "repro_predict_witness_records",
            "Records per constructed witness trace.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        trace_seconds = metrics.histogram(
            "repro_predict_trace_seconds",
            "Wall-clock duration of predicting over one trace.",
            buckets=DEFAULT_LATENCY_BUCKETS_S,
            volatile=True,
        )
        candidate_seconds = metrics.histogram(
            "repro_predict_candidate_seconds",
            "Wall-clock duration of one candidate's witness "
            "construction and confirmation replays.",
            buckets=DEFAULT_LATENCY_BUCKETS_S,
            volatile=True,
        )

        result = PredictResult(outcome=CLEAN, records=len(source.records),
                               metrics=metrics)

        # Stage 0: the recorded run itself.  A manifest deadlock is the
        # observed-state checkers' job; prediction is for ok-traces.
        recorded = replay(source, mode=DETECTION, model=GraphModel.AUTO,
                          check_every=1)
        if recorded.deadlocked:
            result.outcome = MANIFEST
            result.manifest_reports = list(recorded.reports)
            traces_total.inc(outcome=MANIFEST)
            trace_seconds.observe(time.perf_counter() - start)
            result.duration_s = time.perf_counter() - start
            return result

        # Stages 1+2: HB model, intervals, candidate cycles.
        model, intervals = extract_intervals(source)
        candidates, truncated = enumerate_candidates(
            intervals, max_candidates=self.max_candidates
        )
        result.truncated = truncated
        if truncated:
            metrics.counter(
                "repro_predict_truncated_total",
                "Scans cut short by an enumeration cap.",
            ).inc()
        if self.tracer.enabled:
            self.tracer.event(
                "predict.scan", "predict", ordinal=result.records,
                cat="predict", intervals=len(intervals),
                candidates=len(candidates), truncated=truncated,
            )

        # Stages 3+4: witness per candidate, engine confirmation.
        for index, candidate in enumerate(candidates):
            candidate_start = time.perf_counter()
            result.candidates_scanned += 1
            candidates_total.inc(outcome="scanned")
            witness = build_witness(source, model, candidate, index=index)
            witness_records.observe(len(witness.records))
            report = self._confirm(candidate, witness)
            if report is None:
                result.refuted += 1
                candidates_total.inc(outcome="refuted")
            else:
                by_task = {str(iv.task): iv for iv in candidate.intervals}
                result.confirmed.append(Prediction(
                    candidate=candidate,
                    report=_rehome_provenance(report, by_task),
                    witness=witness,
                ))
                candidates_total.inc(outcome="confirmed")
            if self.tracer.enabled:
                self.tracer.event(
                    "predict.confirm", "predict",
                    ordinal=min(iv.open_seq for iv in candidate.intervals),
                    cat="predict", candidate=index,
                    tasks=", ".join(candidate.tasks),
                    verdict="refuted" if report is None else "confirmed",
                )
            candidate_seconds.observe(time.perf_counter() - candidate_start)

        result.outcome = PREDICTED if result.confirmed else CLEAN
        traces_total.inc(outcome=result.outcome)
        result.duration_s = time.perf_counter() - start
        trace_seconds.observe(result.duration_s)
        return result


def predict_trace(
    source: Union[Trace, str],
    metrics: Optional[MetricsRegistry] = None,
    tracer=NULL_TRACER,
) -> PredictResult:
    """Convenience front door mirroring :func:`repro.trace.replay.replay`,
    under the default caps."""
    return Predictor(metrics=metrics, tracer=tracer).predict(source)


def render_prediction(prediction: Prediction, number: int) -> str:
    """The text block for one prediction (deterministic; the predict
    CLI's analogue of ``render_report_provenance``)."""
    report = prediction.report
    lines = [
        f"prediction {number}: {report.describe().splitlines()[0]}",
        "  cycle: " + " -> ".join(str(v) for v in report.cycle),
        f"  witness: {len(prediction.witness.records)} record(s), "
        f"confirmed by classic+incremental replay",
    ]
    lines.append("  mined from:")
    for interval in prediction.candidate.intervals:
        waits = ", ".join(sorted(str(e) for e in interval.status.waits))
        lines.append(
            f"    {interval.task} waiting on {waits} "
            f"<- {interval.origin().describe()}"
        )
    if report.provenance:
        lines.append("  edges:")
        for edge in report.provenance:
            source = edge.source
            if edge.source_task != edge.source:
                source += f" [{edge.source_task}]"
            target = edge.target
            if edge.target_task != edge.target:
                target += f" [{edge.target_task}]"
            lines.append(
                f"    {source} <- {edge.source_origin.describe()}"
                f"  ->  {target} <- {edge.target_origin.describe()}"
            )
    return "\n".join(lines)


__all__ = [
    "CLEAN",
    "MANIFEST",
    "PREDICTED",
    "PredictResult",
    "Prediction",
    "Predictor",
    "predict_trace",
    "render_prediction",
]
