"""Causal tracing: deterministic spans, provenance, and their exports.

This module is the provenance half of the observability plane.  The
metrics registry answers *how much* (counts, latencies); tracing
answers *which records*: when a deadlock report fires, every cycle edge
maps back to the trace records that published the statuses forming it,
and the report carries a **detection lag** — how far (in record
ordinals) the reporting check trailed the record that closed the cycle.

Three design rules keep every artifact reproducible:

* **Ordinals, not wall clock.**  Span boundaries and origins are trace
  record ordinals (the ``seq`` a reader can seek to), so replaying the
  same file reconstructs bit-identical spans on any host.  Wall-clock
  twins (the ``*_seconds`` lag histogram) are ``volatile`` and stay out
  of the deterministic snapshot.
* **Derived IDs.**  :func:`span_id` hashes the identifying parts with
  BLAKE2b — stable across processes and ``PYTHONHASHSEED``, unlike
  ``hash()``.
* **Shared enrichment.**  Both replay engines attach provenance through
  the same :class:`OriginTracker`/:func:`attach_provenance` pair, so
  enriched reports stay ``==``-identical between the from-scratch and
  incremental engines (the corpus agreement pin extends to provenance).

Exports are Chrome trace-event JSON (loadable in Perfetto / Chrome's
``about:tracing``) and a plain-text waterfall, both rendered by this
module and surfaced through ``python -m repro.trace explain`` and the
``/spans`` endpoint of ``python -m repro.obs serve``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.report import DeadlockReport, EdgeProvenance, RecordOrigin

__all__ = [
    "span_id",
    "TraceSpan",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "OriginTracker",
    "attach_provenance",
    "spans_to_chrome",
    "chrome_trace_from_records",
    "validate_chrome_trace",
    "render_report_provenance",
    "render_chrome_json",
    "WATERFALL_WIDTH",
]

#: Column width of the text waterfall's bar area.
WATERFALL_WIDTH = 24

#: Span ring-buffer capacity (old spans are evicted FIFO).
SPAN_BUFFER = 4096


def span_id(*parts: object) -> str:
    """A 16-hex-digit ID derived from ``parts`` (BLAKE2b, seed-stable).

    The parts should identify the span in trace terms — name plus
    ordinals / stream tokens — never wall clock or ``id()``.
    """
    joined = "\x1f".join(str(p) for p in parts)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=8).hexdigest()


class TraceSpan(NamedTuple):
    """One finished span (or instant event: ``start == end``).

    ``start``/``end`` are ordinals — trace record sequence numbers in
    replay, the tracer's own monotonic counter in live runs.  ``track``
    groups spans onto one timeline row (a task, a site, a component).
    A tuple, like :class:`~repro.core.report.RecordOrigin`: a traced run
    builds one per event, and a tuple builds in well under half the
    time of a frozen dataclass.
    """

    name: str
    track: str
    start: int
    end: int
    cat: str = "span"
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def id(self) -> str:
        return span_id(self.name, self.track, self.start, self.end)

    @property
    def instant(self) -> bool:
        return self.end <= self.start


class Tracer:
    """A thread-safe ring buffer of the last :data:`SPAN_BUFFER` spans
    (:class:`TraceSpan`).

    Call sites guard on :attr:`enabled` exactly like the metrics
    registry's pattern, and :data:`NULL_TRACER` is the disabled twin.
    ``begin``/``end`` bracket open spans under caller-chosen keys (a
    task id, a site name); ``event`` and ``complete`` append finished
    spans directly.
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: deque = deque(maxlen=SPAN_BUFFER)
        self._open: Dict[object, Tuple[str, str, int, Tuple]] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)

    def next_ordinal(self) -> int:
        """The live-path ordinal source: a process-monotonic counter."""
        return next(self._counter)

    def event(self, name: str, track: str, ordinal: Optional[int] = None,
              cat: str = "event", **args) -> None:
        """Record an instant event."""
        if ordinal is None:
            ordinal = self.next_ordinal()
        self._append(TraceSpan(name, track, ordinal, ordinal, cat,
                               tuple(sorted(args.items()))))

    def begin(self, name: str, track: str, key: object,
              ordinal: Optional[int] = None, cat: str = "span", **args) -> None:
        """Open a span under ``key`` (closed by :meth:`end`)."""
        if ordinal is None:
            ordinal = self.next_ordinal()
        with self._lock:
            self._open[key] = (name, track, ordinal, tuple(sorted(args.items())))

    def end(self, key: object, ordinal: Optional[int] = None, **args) -> None:
        """Close the span opened under ``key`` (no-op if absent)."""
        if ordinal is None:
            ordinal = self.next_ordinal()
        with self._lock:
            opened = self._open.pop(key, None)
        if opened is None:
            return
        name, track, start, base_args = opened
        merged = tuple(sorted(dict(base_args, **args).items()))
        self._append(TraceSpan(name, track, start, max(start, ordinal),
                               "span", merged))

    def complete(self, name: str, track: str, start: int,
                 ordinal: Optional[int] = None, cat: str = "span",
                 **args) -> None:
        """Append an already-finished span from ``start`` to now."""
        if ordinal is None:
            ordinal = self.next_ordinal()
        self._append(TraceSpan(name, track, start, max(start, ordinal), cat,
                               tuple(sorted(args.items()))))

    def _append(self, span: TraceSpan) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[TraceSpan]:
        """The buffered spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._open.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def to_chrome(self) -> dict:
        """The buffer as a Chrome trace-event document.

        Spans begun but not yet ended — a task blocked right now —
        are included as begin events, so scraping ``/spans`` during a
        deadlock shows the stuck tasks instead of an empty document.
        """
        with self._lock:
            closed = list(self._spans)
            open_ = [
                (name, track, start, dict(args))
                for name, track, start, args in self._open.values()
            ]
        return spans_to_chrome(closed, open_)


class NullTracer(Tracer):
    """The disabled tracer: every recording call is a no-op."""

    enabled = False

    def event(self, name, track, ordinal=None, cat="event", **args) -> None:
        return None

    def begin(self, name, track, key, ordinal=None, cat="span", **args) -> None:
        return None

    def end(self, key, ordinal=None, **args) -> None:
        return None

    def complete(self, name, track, start, ordinal=None, cat="span",
                 **args) -> None:
        return None

    def spans(self) -> List[TraceSpan]:
        return []


#: The process-wide disabled tracer — the default ``tracer=`` value
#: throughout the stack (shared; it holds no state).
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# replay-side origin tracking and report enrichment
# ---------------------------------------------------------------------------
class OriginTracker:
    """Tracks, per task, the record that published its analysed status.

    Fed every record of a replay in order (:meth:`observe`) — or every
    accepted delta of a live stream (:meth:`observe_delta`) — it answers
    "which record put this task's status into the checked view":
    ``block`` records for local statuses, ``publish``/``publish_delta``
    records (with site, stream and per-stream seq) for distributed
    ones.  Later records override earlier ones — matching the analysed
    view, where a publish supersedes the local block it mirrors.

    Replay drives one tracker whatever the engine, which is what keeps
    enriched reports equal between engines.
    """

    __slots__ = ("origins", "walls", "last_ordinal", "_site_tasks", "_kinds")

    def __init__(self) -> None:
        # Imported here, not at module level: repro.trace pulls this
        # module in through replay, so a top-level import would be
        # circular.  Caching the enum per tracker keeps the per-record
        # fold free of import-machinery lookups.
        from repro.trace.events import RecordKind

        self.origins: Dict[object, RecordOrigin] = {}
        #: task -> perf_counter at origin (volatile lag only; never
        #: reaches a report).
        self.walls: Dict[object, float] = {}
        self.last_ordinal = 0
        self._site_tasks: Dict[str, Set[str]] = {}
        self._kinds = RecordKind

    def _set(self, task, origin: RecordOrigin) -> None:
        self.origins[task] = origin
        self.walls[task] = time.perf_counter()

    def _drop(self, task) -> None:
        self.origins.pop(task, None)
        self.walls.pop(task, None)

    def observe(self, rec) -> None:
        """Fold one trace record into the origin map."""
        RecordKind = self._kinds

        self.last_ordinal = rec.seq
        kind = rec.kind
        if kind is RecordKind.BLOCK:
            self._set(rec.task, RecordOrigin(rec.seq, "block"))
        elif kind is RecordKind.UNBLOCK:
            origin = self.origins.get(rec.task)
            if origin is not None and origin.site is None:
                self._drop(rec.task)
        elif kind is RecordKind.PUBLISH_DELTA:
            self.observe_delta(rec.seq, rec.site, rec.payload)
        # REGISTER / ADVANCE: context only — the ordinal already moved.

    def observe_delta(self, ordinal: int, site: str, payload) -> None:
        """Fold one delta wire object ``site`` published at ``ordinal``
        — the record-free entry a live consumer (the checker service)
        calls directly, and the ``publish_delta`` branch of
        :meth:`observe`."""
        self.last_ordinal = ordinal
        origin = RecordOrigin(
            ordinal, "publish_delta", site=site,
            stream=payload["stream"], seq=payload["seq"],
        )
        owned = self._site_tasks.setdefault(site, set())
        if payload["kind"] == "snapshot":
            tasks = set(payload["set"])
            for gone in owned - tasks:
                self._drop(gone)
            owned = tasks
        else:
            for task in payload["clear"]:
                self._drop(task)
                owned.discard(task)
            owned.update(payload["set"])
        for task in payload["set"]:
            self._set(task, origin)
        self._site_tasks[site] = owned

    def drop_site(self, site: str) -> None:
        """The site withdrew its stream: forget the origins (and wall
        stamps) of every task it still owns, and the site itself."""
        for task in self._site_tasks.pop(site, ()):
            origin = self.origins.get(task)
            if origin is not None and origin.site == site:
                self._drop(task)


def _attribution_index(report: DeadlockReport, statuses):
    """Precompute SG-vertex attribution for one report.

    Returns ``(waiters, min_task)`` where ``waiters`` maps each awaited
    event to the minimal (string-ordered) report task whose status
    waits on it, and ``min_task`` is the minimal report task overall
    (the no-waiter fallback).  One pass over the report's tasks replaces
    the per-vertex scan the old code sorted out for every cycle edge.
    """
    waiters: Dict[object, Tuple[str, object]] = {}
    min_key: Optional[Tuple[str, object]] = None
    for task in report.tasks:
        key = (str(task), task)
        if min_key is None or key < min_key:
            min_key = key
        if task not in statuses:
            continue
        for event in statuses[task].waits:
            held = waiters.get(event)
            if held is None or key < held:
                waiters[event] = key
    min_task = None if min_key is None else min_key[1]
    return waiters, min_task


def _attribute(vertex, report: DeadlockReport, statuses,
               tracker: OriginTracker, index,
               fallback: RecordOrigin) -> Tuple[RecordOrigin, str]:
    """Attribute one cycle vertex to ``(origin, task)``.

    A WFG vertex *is* a task: its own origin.  An SG vertex is an
    event: attributed through ``index`` (:func:`_attribution_index`) to
    the minimal (string-ordered) report task whose status waits on it.
    Missing origins (an avoidance-refused block never entered the view)
    take ``fallback``, the current ordinal.  ``tracker.origins`` and
    ``statuses`` are keyed by task and probed here with either kind of
    vertex: an :class:`~repro.core.events.Event` equals no task id, so
    an event never answers to a task's origin.
    """
    if vertex in tracker.origins:
        return tracker.origins[vertex], str(vertex)
    if vertex in statuses or not report.tasks:
        # A task vertex without a tracked origin (avoidance refusal).
        return fallback, str(vertex)
    waiters, min_task = index
    held = waiters.get(vertex)
    task = min_task if held is None else held[1]
    return tracker.origins.get(task, fallback), str(task)


def attach_provenance(
    report: DeadlockReport, tracker: OriginTracker, statuses
) -> Tuple[DeadlockReport, float]:
    """Enrich ``report`` with per-edge provenance and detection lag.

    ``statuses`` is the task→status mapping of the analysed view (used
    to attribute SG event vertices to waiting tasks).  Returns the
    enriched report plus the *wall-clock* lag since the closing record
    (volatile; callers feed it to the seconds histogram only).
    """
    current = tracker.last_ordinal
    index = _attribution_index(report, statuses)
    fallback = RecordOrigin(current, "block")
    # Each vertex is an edge's target and the next edge's source:
    # attribute it once, then zip consecutive ends into edges.
    ends: Dict[object, Tuple[str, str, RecordOrigin]] = {}
    for vertex in report.cycle:
        if vertex not in ends:
            origin, task = _attribute(
                vertex, report, statuses, tracker, index, fallback
            )
            ends[vertex] = (str(vertex), task, origin)
    walk = [ends[vertex] for vertex in report.cycle]
    edges = [
        EdgeProvenance(a, b, task_a, task_b, origin_a, origin_b)
        for (a, task_a, origin_a), (b, task_b, origin_b)
        in zip(walk, walk[1:])
    ]
    # The closing edge: the latest origin among the cycle's tasks (ties
    # broken by task string, for a deterministic wall-clock anchor).
    closing_ord, closing_task = 0, None
    for task in report.tasks:
        origin = tracker.origins.get(task)
        if origin is None:
            continue
        key = (origin.ordinal, str(task))
        if closing_task is None or key > (closing_ord, str(closing_task)):
            closing_ord, closing_task = origin.ordinal, task
    if closing_task is None:
        closing_ord = current
    lag = max(0, current - closing_ord)
    wall = tracker.walls.get(closing_task)
    lag_s = 0.0 if wall is None else max(0.0, time.perf_counter() - wall)
    enriched = replace(
        report,
        provenance=tuple(edges),
        detection_lag=lag,
        detected_at=current,
    )
    return enriched, lag_s


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
def spans_to_chrome(
    spans: Sequence[TraceSpan],
    open_spans: Sequence[Tuple[str, str, int, dict]] = (),
) -> dict:
    """Render spans as a Chrome trace-event document (Perfetto-loadable).

    Ordinals map to microsecond timestamps, tracks to thread ids in
    sorted-name order — so the document bytes are a pure function of
    the spans.  ``open_spans`` are begun-but-unfinished spans as
    ``(name, track, start, args)`` tuples; they become begin (``B``)
    events, which Perfetto renders as slices still running at the end
    of the trace — without them a deadlocked snapshot (every task
    blocked *right now*) would show nothing at all.
    """
    tracks = sorted(
        {s.track for s in spans} | {track for _, track, _, _ in open_spans}
    )
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    events: List[dict] = []
    for track in tracks:
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tids[track],
            "args": {"name": track},
        })
    for span in sorted(spans, key=lambda s: (s.start, s.track, s.name, s.end)):
        entry = {
            "name": span.name,
            "cat": span.cat,
            "pid": 1,
            "tid": tids[span.track],
            "ts": span.start,
            "args": dict(sorted(dict(span.args, span_id=span.id).items())),
        }
        if span.instant:
            entry["ph"] = "i"
            entry["s"] = "t"
        else:
            entry["ph"] = "X"
            entry["dur"] = span.end - span.start
        events.append(entry)
    for name, track, start, args in sorted(
        open_spans, key=lambda o: (o[2], o[1], o[0])
    ):
        events.append({
            "name": name,
            "cat": "span",
            "ph": "B",
            "pid": 1,
            "tid": tids[track],
            "ts": start,
            "args": dict(
                sorted(dict(args, span_id=span_id(name, track, start)).items())
            ),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.tracing", "clock": "record-ordinals"},
    }


def chrome_trace_from_records(
    records: Iterable, reports: Sequence[DeadlockReport] = ()
) -> dict:
    """Build the Chrome document straight from trace records.

    Task blocked intervals become duration spans, publications instant
    events on per-site tracks, and each (enriched) report an instant
    event on the checker track carrying its cycle and lag.
    """
    from repro.trace.events import RecordKind

    spans: List[TraceSpan] = []
    open_blocks: Dict[object, int] = {}
    last = 0
    for rec in records:
        last = rec.seq
        kind = rec.kind
        if kind is RecordKind.BLOCK:
            open_blocks[rec.task] = rec.seq
        elif kind is RecordKind.UNBLOCK:
            start = open_blocks.pop(rec.task, None)
            if start is not None:
                spans.append(TraceSpan(
                    "task.blocked", f"task:{rec.task}", start, rec.seq,
                ))
        elif kind is RecordKind.PUBLISH_DELTA:
            payload = rec.payload
            spans.append(TraceSpan(
                "site.publish_delta", f"site:{rec.site}", rec.seq, rec.seq,
                cat="publish",
                args=(
                    ("delta_kind", payload["kind"]),
                    ("seq", payload["seq"]),
                    ("stream", payload["stream"]),
                ),
            ))
    for task, start in sorted(open_blocks.items(), key=lambda kv: str(kv[0])):
        spans.append(TraceSpan("task.blocked", f"task:{task}", start, last))
    for number, report in enumerate(reports, 1):
        args: List[Tuple[str, object]] = [
            ("cycle", " -> ".join(str(v) for v in report.cycle)),
            ("model", report.model_used.value),
            ("number", number),
        ]
        if report.detection_lag is not None:
            args.append(("detection_lag_records", report.detection_lag))
        spans.append(TraceSpan(
            "deadlock.report", "checker",
            report.detected_at if report.detected_at is not None else last,
            report.detected_at if report.detected_at is not None else last,
            cat="report", args=tuple(sorted(args)),
        ))
    return spans_to_chrome(spans)


def validate_chrome_trace(doc: dict) -> None:
    """Schema-check a Chrome trace-event document (raises ValueError).

    Verifies the invariants Perfetto's JSON importer relies on: a
    ``traceEvents`` array whose entries carry ``name``/``ph``/``pid``/
    ``tid``, numeric non-negative ``ts`` on all non-metadata events,
    and a non-negative ``dur`` on every complete (``X``) event.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("chrome trace must be an object with a traceEvents array")
    for i, entry in enumerate(doc["traceEvents"]):
        if not isinstance(entry, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in entry:
                raise ValueError(f"traceEvents[{i}] missing {field!r}")
        ph = entry["ph"]
        if ph not in ("X", "i", "M", "B", "E"):
            raise ValueError(f"traceEvents[{i}] has unknown phase {ph!r}")
        if ph == "M":
            continue
        ts = entry.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"traceEvents[{i}] has invalid ts {ts!r}")
        if ph == "X":
            dur = entry.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] has invalid dur {dur!r}")
        if ph == "i" and entry.get("s") not in ("t", "p", "g"):
            raise ValueError(f"traceEvents[{i}] instant missing scope")


# ---------------------------------------------------------------------------
# text waterfall
# ---------------------------------------------------------------------------
def _waterfall_rows(report: DeadlockReport) -> List[Tuple[str, RecordOrigin]]:
    rows: List[Tuple[str, RecordOrigin]] = []
    seen = set()
    for edge in report.provenance or ():
        for task, origin in (
            (edge.source_task, edge.source_origin),
            (edge.target_task, edge.target_origin),
        ):
            key = (task, origin.ordinal)
            if key not in seen:
                seen.add(key)
                rows.append((task, origin))
    return rows


def render_report_provenance(report: DeadlockReport, number: int) -> str:
    """The text waterfall for one enriched report (deterministic)."""
    lines = [f"report {number}: {report.describe().splitlines()[0]}"]
    lines.append("  cycle: " + " -> ".join(str(v) for v in report.cycle))
    if report.detection_lag is None or report.detected_at is None:
        lines.append("  provenance: not attached")
        return "\n".join(lines)
    closed = report.detected_at - report.detection_lag
    lines.append(
        f"  closed @record {closed}, reported @record {report.detected_at}, "
        f"detection lag {report.detection_lag} record(s)"
    )
    lines.append("  edges:")
    for edge in report.provenance or ():
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
    rows = _waterfall_rows(report)
    if rows:
        lo = min(origin.ordinal for _, origin in rows)
        hi = max(report.detected_at, lo)
        span = max(1, hi - lo)
        width = WATERFALL_WIDTH
        labels = [f"{task}  {origin.describe()}" for task, origin in rows]
        pad = max(len(label) for label in labels)
        lines.append(f"  waterfall (records {lo}..{hi}):")
        for (task, origin), label in zip(rows, labels):
            offset = ((origin.ordinal - lo) * (width - 1)) // span
            bar = "." * offset + "=" * (width - offset)
            lines.append(f"    {label.ljust(pad)}  |{bar}|")
    return "\n".join(lines)


def render_chrome_json(doc: dict) -> str:
    """Canonical JSON text for a Chrome document (sorted, compact)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
