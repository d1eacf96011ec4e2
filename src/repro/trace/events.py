"""The trace format: versioned records of a verified execution.

A *trace* is the event-based representation of Section 4.1 made
persistent: the totally-ordered stream of blocked-status changes (and
their synchronisation context) that the verification layer observed
during one run.  Replaying the stream through a fresh
:class:`~repro.core.checker.DeadlockChecker` reproduces the analysis of
the live run — deterministically, offline, and at batch throughput.

Five record kinds cover every observation point of the tool
architecture (Section 5.3's task observer plus Section 5.2's publishes):

* ``block`` — a task is about to block, with its full
  :class:`~repro.core.events.BlockedStatus` (waited events + local
  phases);
* ``unblock`` — the task stopped waiting (success, error or abort);
* ``register`` / ``advance`` — synchroniser context: membership and
  local-phase changes.  Replay does not need them (the blocked status is
  self-contained), but they make traces debuggable and let future
  analyses reconstruct phaser membership over time;
* ``publish_delta`` — a distributed site appended one
  :mod:`repro.distributed.delta` wire delta (per-site sequence number,
  ``set``/``restore``/``clear`` ops or a full ``snapshot`` checkpoint)
  to its stream — the store write of the delta protocol.

Records carry a monotonically increasing ``seq`` stamped by the
producer; the stream order *is* the semantics, so codecs must preserve
it.  The format is versioned through :data:`TRACE_VERSION` in the trace
header; readers accept that version and reject every other.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.events import BlockedStatus, Event

#: The trace-format version, written into every header and the only
#: one readers accept.
TRACE_VERSION = 3

#: Magic string identifying a trace (JSONL header field / binary magic).
TRACE_MAGIC = "armus-trace"


class TraceFormatError(ValueError):
    """A trace file (or stream) violates the format."""


class RecordKind(enum.Enum):
    """The kind of one trace record."""

    BLOCK = "block"
    UNBLOCK = "unblock"
    REGISTER = "register"
    ADVANCE = "advance"
    PUBLISH_DELTA = "publish_delta"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The members as module globals for the per-record checks: reading
# ``RecordKind.BLOCK`` costs several times a global lookup.
_BLOCK, _UNBLOCK, _REGISTER, _ADVANCE, _PUBLISH_DELTA = RecordKind


# ---------------------------------------------------------------------------
# status (de)serialisation — the per-status wire form shared by BLOCK
# records and the delta protocol's blobs (its one
# spelling: repro.distributed.delta.encode_bucket/decode_blob wrap it)
# ---------------------------------------------------------------------------
def status_to_obj(status: BlockedStatus) -> dict:
    """Serialise one blocked status to a plain JSON-able dict.

    ``generation`` is a reserved slot, always written 0: readers check
    it and discard it.
    """
    return {
        "waits": sorted([str(e.phaser), e.phase] for e in status.waits),
        "registered": {str(p): n for p, n in sorted(status.registered.items(), key=lambda kv: str(kv[0]))},
        "generation": 0,
    }


def event_from_obj(obj) -> Event:
    """The one door an event comes in from bytes by: ``[phaser, phase]``
    with the phaser a JSON string and the phase a non-negative JSON
    integer, else :class:`TraceFormatError`.

    Writers ``str()`` the phaser on the way out, and ``registered`` is
    keyed by JSON object keys, which are strings: a numeric phaser let
    in here would never meet its own registration, and a list would
    surface as ``unhashable type`` from whoever first hashed the event.
    """
    try:
        phaser, phase = obj
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed event: {obj!r}") from exc
    # ``type(...) is int``: JSON ``true`` is an ``int`` to isinstance.
    if type(phaser) is not str or type(phase) is not int or phase < 0:
        raise TraceFormatError(f"malformed event: {obj!r}")
    return Event(phaser, phase)


def status_from_obj(obj: Mapping) -> BlockedStatus:
    """Inverse of :func:`status_to_obj`; raises :class:`TraceFormatError`
    on malformed input.

    Registered phases and the reserved ``generation`` slot follow
    :func:`event_from_obj`'s rule — non-negative JSON integers, never
    coerced — so whatever this door lets in, the binary writer can
    encode.
    """
    try:
        # Built inside the ``try``: a status that waits on nothing is a
        # ``ValueError`` from ``BlockedStatus`` itself.
        status = BlockedStatus(
            waits=frozenset(event_from_obj(wait) for wait in obj["waits"]),
            registered={str(p): n for p, n in obj["registered"].items()},
        )
        phases = [*status.registered.values(), obj.get("generation", 0)]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed blocked status: {obj!r}") from exc
    # ``type(...) is int``: JSON ``true`` is an ``int`` to isinstance.
    if any(type(n) is not int or n < 0 for n in phases):
        raise TraceFormatError(f"malformed blocked status: {obj!r}")
    return status


# ---------------------------------------------------------------------------
# delta payload validation — the per-record wire form of PUBLISH_DELTA
# (the protocol constants and semantics live in repro.distributed.delta,
# the single owner; this is format validation only)
# ---------------------------------------------------------------------------
def delta_payload_from_obj(obj: Mapping) -> dict:
    """Validate and normalise one PUBLISH_DELTA payload.

    Raises :class:`TraceFormatError` on malformed input; returns a plain
    dict with canonical key order (``v``, ``stream``, ``seq``, ``kind``,
    ``set``, ``restore``, ``clear``, then ``trace`` when present).
    Values are checked, never coerced: ``v`` (default
    ``PROTOCOL_VERSION``, the only version accepted) and ``seq`` (>= 1)
    are JSON integers, ``stream`` a non-empty string and ``clear`` a
    list of strings.  Every status blob is validated through
    :func:`status_from_obj` so a bad delta fails at load time, not
    mid-replay.  The optional ``trace`` member is the causal context
    stamped by publishers with tracing enabled — a flat object of
    scalar values.  (Protocol constants are imported lazily from their
    owner, :mod:`repro.distributed.delta` — a top-level import would
    cycle through the trace package init.)
    """
    from repro.distributed.delta import DELTA_KINDS, PROTOCOL_VERSION

    try:
        version = obj.get("v", PROTOCOL_VERSION)
        stream = obj["stream"]
        seq = obj["seq"]
        kind = obj["kind"]
        set_ops = obj["set"]
        restore_ops = obj["restore"]
        clear_ops = obj["clear"]
        trace_ctx = obj.get("trace")
    except (AttributeError, KeyError, TypeError) as exc:
        # AttributeError: not an object at all (a list, string, number).
        raise TraceFormatError(f"malformed delta payload: {obj!r}") from exc
    # ``type(...) is int``: JSON ``true`` is an ``int`` to isinstance.
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise TraceFormatError(f"unsupported delta protocol version {version!r}")
    if type(stream) is not str or not stream:
        raise TraceFormatError(
            f"delta payload needs a non-empty stream token, got {stream!r}"
        )
    if kind not in DELTA_KINDS:
        raise TraceFormatError(f"unknown delta kind {kind!r}")
    if type(seq) is not int or seq < 1:
        raise TraceFormatError(f"delta seq must be an integer >= 1, got {seq!r}")
    if not isinstance(set_ops, Mapping) or not isinstance(restore_ops, Mapping):
        raise TraceFormatError("delta set/restore must be objects")
    if not isinstance(clear_ops, list) or any(
        type(task) is not str for task in clear_ops
    ):
        raise TraceFormatError("delta clear must be a list of task ids")
    if kind == "snapshot" and (restore_ops or clear_ops):
        raise TraceFormatError("snapshot deltas carry only a set section")
    if trace_ctx is not None:
        if not isinstance(trace_ctx, Mapping):
            raise TraceFormatError("delta trace context must be an object")
        for key, value in trace_ctx.items():
            if not isinstance(value, (str, int, float, bool)):
                raise TraceFormatError(
                    f"delta trace context value for {key!r} must be scalar"
                )
    for blob in set_ops.values():
        status_from_obj(blob)
    for blob in restore_ops.values():
        status_from_obj(blob)
    payload = {
        "v": version,
        "stream": stream,
        "seq": seq,
        "kind": kind,
        "set": {str(t): dict(b) for t, b in set_ops.items()},
        "restore": {str(t): dict(b) for t, b in restore_ops.items()},
        "clear": list(clear_ops),
    }
    if trace_ctx is not None:
        payload["trace"] = {str(k): v for k, v in sorted(trace_ctx.items())}
    return payload


# ---------------------------------------------------------------------------
# report (de)serialisation — the wire form a checker service ships to
# remote clients (and the canonical form differential tests compare)
# ---------------------------------------------------------------------------
def origin_to_obj(origin) -> dict:
    """One :class:`~repro.core.report.RecordOrigin` as a plain dict
    (optional members omitted, so local and distributed origins encode
    minimally)."""
    obj = {"ordinal": origin.ordinal, "kind": origin.kind}
    if origin.site is not None:
        obj["site"] = str(origin.site)
    if origin.stream is not None:
        obj["stream"] = str(origin.stream)
    if origin.seq is not None:
        obj["seq"] = int(origin.seq)
    return obj


def origin_from_obj(obj: Mapping):
    """Inverse of :func:`origin_to_obj`."""
    from repro.core.report import RecordOrigin

    try:
        return RecordOrigin(
            ordinal=int(obj["ordinal"]),
            kind=str(obj["kind"]),
            site=obj.get("site"),
            stream=obj.get("stream"),
            seq=None if obj.get("seq") is None else int(obj["seq"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed record origin: {obj!r}") from exc


def _vertex_to_obj(vertex):
    # Cycle vertices are tasks (WFG) or events (SG); a tagged pair keeps
    # the two distinguishable through JSON.
    if isinstance(vertex, Event):
        return ["e", str(vertex.phaser), vertex.phase]
    return ["t", str(vertex)]


def _vertex_from_obj(obj):
    try:
        tag = obj[0]
        if tag == "e":
            return event_from_obj(obj[1:])
        if tag == "t" and type(obj[1]) is str:
            return obj[1]
    except (IndexError, KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed cycle vertex: {obj!r}") from exc
    raise TraceFormatError(f"malformed cycle vertex: {obj!r}")


def report_to_obj(report) -> dict:
    """Serialise one :class:`~repro.core.report.DeadlockReport` to a
    plain JSON-able dict.

    Order-preserving for ``tasks``/``events``/``cycle`` (cycle order is
    semantics) and canonical otherwise, so
    ``json.dumps(report_to_obj(r), sort_keys=True)`` is a stable byte
    form — what the network differential tests pin.  Replay/service
    provenance enrichments encode when present and are omitted when
    absent, keeping live-path reports minimal.  Provenance interns its
    origins (a long cycle names few distinct publishes): ``{"origins":
    [origin, ...], "edges": [[source, target, source_task, target_task,
    i, j], ...]}`` with ``i``/``j`` indexing ``origins``.
    """
    obj = {
        "tasks": [str(t) for t in report.tasks],
        "events": [[str(e.phaser), e.phase] for e in report.events],
        "cycle": [_vertex_to_obj(v) for v in report.cycle],
        "model": report.model_used.value,
        "edge_count": report.edge_count,
        "avoided": report.avoided,
    }
    if report.provenance is not None:
        interned: dict = {}
        obj["provenance"] = {
            "edges": [
                [
                    edge.source, edge.target,
                    edge.source_task, edge.target_task,
                    interned.setdefault(edge.source_origin, len(interned)),
                    interned.setdefault(edge.target_origin, len(interned)),
                ]
                for edge in report.provenance
            ],
            "origins": [origin_to_obj(origin) for origin in interned],
        }
    if report.detection_lag is not None:
        obj["detection_lag"] = report.detection_lag
    if report.detected_at is not None:
        obj["detected_at"] = report.detected_at
    return obj


def report_from_obj(obj: Mapping):
    """Inverse of :func:`report_to_obj`; raises
    :class:`TraceFormatError` on malformed input."""
    from repro.core.report import DeadlockReport, EdgeProvenance
    from repro.core.selection import GraphModel

    try:
        provenance = None
        if obj.get("provenance") is not None:
            origins = [
                origin_from_obj(o) for o in obj["provenance"]["origins"]
            ]
            edges = []
            for a, b, task_a, task_b, i, j in obj["provenance"]["edges"]:
                if i < 0 or j < 0:
                    raise IndexError("negative origin index")
                edges.append(EdgeProvenance(
                    str(a), str(b), str(task_a), str(task_b),
                    origins[i], origins[j],
                ))
            provenance = tuple(edges)
        return DeadlockReport(
            tasks=tuple(str(t) for t in obj["tasks"]),
            events=tuple(event_from_obj(e) for e in obj["events"]),
            cycle=tuple(_vertex_from_obj(v) for v in obj["cycle"]),
            model_used=GraphModel(obj["model"]),
            edge_count=int(obj["edge_count"]),
            avoided=bool(obj["avoided"]),
            provenance=provenance,
            detection_lag=(
                None if obj.get("detection_lag") is None
                else int(obj["detection_lag"])
            ),
            detected_at=(
                None if obj.get("detected_at") is None
                else int(obj["detected_at"])
            ),
        )
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise TraceFormatError(f"malformed deadlock report: {obj!r}") from exc


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TraceRecord:
    """One observation in a trace.

    Which fields are populated depends on :attr:`kind`:

    =============  =======================================================
    kind           fields
    =============  =======================================================
    BLOCK          ``task``, ``status``
    UNBLOCK        ``task``
    REGISTER       ``task``, ``phaser``, ``phase``
    ADVANCE        ``task``, ``phaser``, ``phase``
    PUBLISH_DELTA  ``site``, ``payload`` (the delta wire object)
    =============  =======================================================
    """

    seq: int
    kind: RecordKind
    task: Optional[str] = None
    status: Optional[BlockedStatus] = None
    phaser: Optional[str] = None
    phase: Optional[int] = None
    site: Optional[str] = None
    payload: Optional[Mapping[str, Mapping]] = None

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise TraceFormatError(f"negative seq: {self.seq}")
        k = self.kind
        if k is _PUBLISH_DELTA:
            if self.site is None or self.payload is None:
                raise TraceFormatError(f"{k.value} record needs site and payload")
        elif self.task is None:
            raise TraceFormatError(f"{k.value} record without a task")
        if k is _BLOCK:
            if self.status is None:
                raise TraceFormatError("block record without a status")
        elif k is _REGISTER or k is _ADVANCE:
            if self.phaser is None or self.phase is None:
                raise TraceFormatError(f"{k.value} record needs phaser and phase")
            if self.phase < 0:
                raise TraceFormatError(f"negative phase: {self.phase}")
        elif k is _PUBLISH_DELTA:
            if "seq" not in self.payload or "kind" not in self.payload:
                raise TraceFormatError(
                    "publish_delta payload needs seq and kind fields"
                )


def block(seq: int, task: str, status: BlockedStatus) -> TraceRecord:
    """A ``block`` record: ``task`` is about to wait with ``status``."""
    return TraceRecord(seq=seq, kind=RecordKind.BLOCK, task=task, status=status)


def unblock(seq: int, task: str) -> TraceRecord:
    """An ``unblock`` record: ``task`` stopped waiting."""
    return TraceRecord(seq=seq, kind=RecordKind.UNBLOCK, task=task)


def register(seq: int, task: str, phaser: str, phase: int) -> TraceRecord:
    """A ``register`` record: ``task`` joined ``phaser`` at ``phase``."""
    return TraceRecord(
        seq=seq, kind=RecordKind.REGISTER, task=task, phaser=phaser, phase=phase
    )


def advance(seq: int, task: str, phaser: str, phase: int) -> TraceRecord:
    """An ``advance`` record: ``task`` arrived at ``phaser``, reaching
    local phase ``phase``."""
    return TraceRecord(
        seq=seq, kind=RecordKind.ADVANCE, task=task, phaser=phaser, phase=phase
    )


def publish_delta(seq: int, site: str, payload: Mapping) -> TraceRecord:
    """A ``publish_delta`` record: ``site`` appended the delta wire
    object ``payload`` (see :mod:`repro.distributed.delta`) to its
    stream in the global store."""
    return TraceRecord(
        seq=seq, kind=RecordKind.PUBLISH_DELTA, site=site, payload=dict(payload)
    )


# ---------------------------------------------------------------------------
# the trace container
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TraceHeader:
    """Metadata written before the records.

    ``meta`` is free-form (scenario parameters, recording mode, expected
    verdicts); generators use it to make corpora self-describing.
    """

    version: int = TRACE_VERSION
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # ``type(...) is int``: a JSONL header's ``true`` is an ``int``
        # to isinstance.
        if type(self.version) is not int or self.version != TRACE_VERSION:
            raise TraceFormatError(
                f"unsupported trace version {self.version!r} "
                f"(this reader understands {TRACE_VERSION})"
            )
        if not isinstance(self.meta, Mapping):
            raise TraceFormatError(
                f"trace header meta must be an object, "
                f"got {type(self.meta).__name__}"
            )


@dataclass(frozen=True)
class Trace:
    """A complete trace: header plus the ordered record stream."""

    header: TraceHeader
    records: Tuple[TraceRecord, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.records, tuple):
            object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
