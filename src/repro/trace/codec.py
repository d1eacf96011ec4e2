"""Two interchangeable trace codecs — JSONL (debuggable) and framed
binary (fast and compact) — and the one reader both are read through.

**JSONL** writes one JSON object per line: the header first (carrying the
magic and version), then one object per record.  It is grep-able,
diff-able and editable — the format of choice while developing a
scenario or inspecting a failure.

**Framed binary** writes a fixed magic + version prefix followed by
length-prefixed frames — the header's meta JSON first, then one per
record.  Integers use LEB128 varints, strings are
varint-length-prefixed UTF-8, and each record frame opens with a
one-byte kind tag — a record can be decoded without touching the rest of
the file, and truncation or corruption is detected at the frame
boundary.  Binary files come out roughly a quarter the size of their
JSONL twins (the ``trace.codec.*`` per-layer metrics of
``benchmarks/e2e/`` track decode and encode throughput).

:func:`save_trace` picks the codec from the file extension (``.jsonl``
vs ``.bin``/``.trace``), readers from the leading magic bytes, so
callers rarely name a codec explicitly.

The codec classes are *per-record* coders: ``encode_header`` /
``encode_record`` produce the bytes for one header or record (what
:func:`save_trace`, :func:`dumps` and the spill-to-disk
:class:`~repro.trace.stream.StreamingRecorder` write), ``decode_record_*``
turn one frame or line back into a
:class:`~repro.trace.events.TraceRecord`.  Bytes are only ever read by
:class:`TraceReader` — :func:`load_trace`, :func:`loads` and
:func:`~repro.trace.stream.iter_load` are all callers of it — so the
rules of the file boundary (the :data:`MAX_FRAME_BYTES` ceiling, invalid
UTF-8, what counts as a crash tail) are stated once.

A binary frame is decoded at most once, straight into the values replay
reads: a ``block`` frame's status section (the rest of the frame after
the task id) becomes the events and the
:class:`~repro.core.events.BlockedStatus` with no wire dict in between.
The ``register``/``advance`` context frames replay skips are read and
checked in full too, but into a slotted :class:`ContextRecord` rather
than a frozen :class:`~repro.trace.events.TraceRecord`.  Each read
keeps the block sections it has decoded in a table keyed by their
bytes (at most ``_STATUS_TABLE`` = 256 entries of at most 1 KiB each,
cleared when full, dropped when the read ends): a barrier phase blocks
every task with one status, so a section the trace repeats is decoded
only the first time and its immutable status shared.  A malformed section is
refused before it is stored.  Publish-delta blobs stay wire dicts,
which is what those records carry.
"""

from __future__ import annotations

import io
import itertools
import json
import pathlib
import struct
from typing import BinaryIO, Iterator, Optional, Tuple, Union

from repro.core.events import BlockedStatus, Event
from repro.distributed.delta import PROTOCOL_VERSION
from repro.trace.events import (
    Trace,
    TraceFormatError,
    TraceHeader,
    TraceRecord,
    RecordKind,
    TRACE_MAGIC,
    _BLOCK,
    _UNBLOCK,
    _is_ordinal,
    delta_payload_from_obj,
    status_from_obj,
    status_to_obj,
)

PathLike = Union[str, pathlib.Path]

#: 8-byte magic prefix of a binary trace file.
BINARY_MAGIC = b"ARMUSTRC"

#: Ceiling on one binary frame body, the binary header's meta and one
#: JSONL line (the net layer's frame limit; the corpus's largest frame
#: is 250 bytes) — the line between truncation and corruption: the
#: reader never waits for more, the encoders never emit more.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Accepted ``on_truncation`` policies.
TRUNCATION_POLICIES = ("error", "ignore")

#: Bytes per read of the binary frame scan.  Small enough that streaming
#: stays far below a materialised trace's footprint (pinned by
#: ``tests/trace/test_stream.py``), large enough to amortise syscalls.
_SCAN_CHUNK = 1 << 16

#: Entries in a :class:`BinaryCodec`'s table of decoded block-frame
#: status sections, cleared when full.  A barrier phase blocks every
#: task with the same status, so a long trace repeats a few sections
#: many times; the statuses are immutable and shared by every record
#: read from equal bytes.  Only sections of at most
#: ``_TABLED_SECTION_BYTES`` are kept, so what the table holds stays
#: small whatever the file (a streamed read remains O(chunk + frame)).
_STATUS_TABLE = 256
_TABLED_SECTION_BYTES = 1024

_KIND_TAGS = {
    RecordKind.BLOCK: 1,
    RecordKind.UNBLOCK: 2,
    RecordKind.REGISTER: 3,
    RecordKind.ADVANCE: 4,
    RecordKind.PUBLISH_DELTA: 6,
}

#: Binary bytes for the two delta kinds (PUBLISH_DELTA frames).
_DELTA_KIND_TAGS = {"delta": 0, "snapshot": 1}
_TAG_DELTA_KINDS = {tag: kind for kind, tag in _DELTA_KIND_TAGS.items()}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}
#: The context kinds replay skips, read into :class:`ContextRecord`.
_CONTEXT_TAG_KINDS = {
    _KIND_TAGS[kind]: kind for kind in (RecordKind.REGISTER, RecordKind.ADVANCE)
}


# ---------------------------------------------------------------------------
# JSONL codec
# ---------------------------------------------------------------------------
def _record_to_obj(rec: TraceRecord) -> dict:
    obj: dict = {"seq": rec.seq, "kind": rec.kind.value}
    if rec.task is not None:
        obj["task"] = rec.task
    if rec.status is not None:
        obj["status"] = status_to_obj(rec.status)
    if rec.phaser is not None:
        obj["phaser"] = rec.phaser
    if rec.phase is not None:
        obj["phase"] = rec.phase
    if rec.site is not None:
        obj["site"] = rec.site
    if rec.payload is not None:
        obj["payload"] = rec.payload
    return obj


def _record_from_obj(obj: dict) -> TraceRecord:
    try:
        kind = RecordKind(obj["kind"])
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"malformed record object: {obj!r}") from exc
    # The types the binary layout guarantees by construction, so both
    # codecs yield one record type: ids are JSON strings, ``seq`` and
    # ``phase`` non-negative integers (``event_from_obj``'s rule).
    seq, phase = obj.get("seq"), obj.get("phase")
    task, phaser, site = obj.get("task"), obj.get("phaser"), obj.get("site")
    if (
        not _is_ordinal(seq)
        or not (phase is None or _is_ordinal(phase))
        or any(name is not None and type(name) is not str
               for name in (task, phaser, site))
    ):
        raise TraceFormatError(f"malformed record object: {obj!r}")
    status = None
    if "status" in obj:
        status = status_from_obj(obj["status"])
    payload = obj.get("payload")
    if kind is RecordKind.PUBLISH_DELTA and payload is not None:
        if not isinstance(payload, dict):
            raise TraceFormatError(f"delta payload is not an object: {payload!r}")
        payload = delta_payload_from_obj(payload)
    return TraceRecord(seq, kind, task, status, phaser, phase, site, payload)


def _bounded(data, what: str):
    """``data`` unchanged, unless it is past the ceiling no reader accepts."""
    if len(data) > MAX_FRAME_BYTES:
        raise TraceFormatError(f"{what} exceeds {MAX_FRAME_BYTES} bytes")
    return data


def _parse_json(text: str, what: str):
    """``json.loads``, every refusal typed: an over-long int literal is a
    plain ``ValueError``, hostile nesting a ``RecursionError``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"unparseable {what}: {text[:80]!r}") from exc


def _canonical_json(obj: dict) -> str:
    """The one JSON spelling both codecs write: compact, keys sorted."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


class JsonlCodec:
    """One JSON object per line; human-readable reference codec."""

    name = "jsonl"
    extensions = (".jsonl", ".json")

    def encode_header(self, header: TraceHeader) -> bytes:
        """The header line (including the trailing newline)."""
        obj = {
            "magic": TRACE_MAGIC,
            "version": header.version,
            "meta": dict(header.meta),
        }
        return _bounded((_canonical_json(obj) + "\n").encode("utf-8"), "header line")

    def encode_record(self, rec: TraceRecord) -> bytes:
        """One record line (including the trailing newline)."""
        line = _canonical_json(_record_to_obj(rec)) + "\n"
        return _bounded(line.encode("utf-8"), "record line")

    def decode_header_line(self, line: str) -> TraceHeader:
        """Parse the header line; reject bad magic or versions."""
        header_obj = _parse_json(line, "header line")
        if not isinstance(header_obj, dict) or header_obj.get("magic") != TRACE_MAGIC:
            raise TraceFormatError("not an armus trace (bad magic)")
        return TraceHeader(
            version=header_obj.get("version", -1),
            meta=header_obj.get("meta", {}),
        )

    def decode_record_line(self, line: str) -> TraceRecord:
        """Parse one record line back into a :class:`TraceRecord`."""
        return _record_from_obj(_parse_json(line, "record line"))


# ---------------------------------------------------------------------------
# framed binary codec
# ---------------------------------------------------------------------------
def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise TraceFormatError(f"cannot encode negative int: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buf: memoryview, pos: int) -> Tuple[int, int]:
    try:
        byte = buf[pos]
        if byte < 0x80:  # one byte: tags, lengths, most ints
            return byte, pos + 1
        second = buf[pos + 1]
        if second < 0x80:  # two: most seqs and phases
            return (byte & 0x7F) | second << 7, pos + 2
    except IndexError:
        pass  # truncated: the loop below says so
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise TraceFormatError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise TraceFormatError("varint too long")


def _write_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _write_varint(out, len(data))
    out.extend(data)


def _read_str(buf: memoryview, pos: int) -> Tuple[str, int]:
    if pos < len(buf) and buf[pos] < 0x80:  # the one-byte length of a name
        length = buf[pos]
        pos += 1
    else:
        length, pos = _read_varint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise TraceFormatError("truncated string")
    try:
        return str(buf[pos:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise TraceFormatError("string is not valid UTF-8") from exc


def _write_status(out: bytearray, obj: dict) -> None:
    """Encode one status wire dict (see ``status_to_obj``)."""
    waits = obj["waits"]
    _write_varint(out, len(waits))
    for phaser, phase in waits:
        _write_str(out, str(phaser))
        _write_varint(out, int(phase))
    registered = obj["registered"]
    _write_varint(out, len(registered))
    for phaser, phase in registered.items():
        _write_str(out, str(phaser))
        _write_varint(out, int(phase))


def _read_phases(buf, pos: int) -> Tuple[list, int]:
    """A count, then that many ``(phaser, phase)`` pairs."""
    count, pos = _read_varint(buf, pos)
    pairs = []
    for _ in range(count):
        phaser, pos = _read_str(buf, pos)
        phase, pos = _read_varint(buf, pos)
        pairs.append((phaser, phase))
    return pairs, pos


def _read_status(buf: memoryview, pos: int) -> Tuple[dict, int]:
    """One status wire dict: a publish-delta blob."""
    waits, pos = _read_phases(buf, pos)
    registered, pos = _read_phases(buf, pos)
    return {
        "waits": [list(wait) for wait in waits],
        "registered": dict(registered),
    }, pos


def _decode_status(section: bytes) -> BlockedStatus:
    """A block frame's status section — the rest of the frame after the
    task id — straight into the value replay hands the checker."""
    waits, pos = _read_phases(section, 0)
    registered, pos = _read_phases(section, pos)
    if pos != len(section):
        raise TraceFormatError(f"{len(section) - pos} trailing bytes in frame")
    if not waits:
        raise TraceFormatError("a blocked status must wait on at least one event")
    return BlockedStatus(
        frozenset(itertools.starmap(Event, waits)), dict(registered)
    )


class BinaryCodec:
    """Length-prefixed frames with varint fields; the fast codec.

    An instance keeps the status sections it has decoded (see
    :data:`_STATUS_TABLE`); :class:`TraceReader` makes one per pass, so
    the table lives as long as the read.
    """

    name = "binary"
    extensions = (".bin", ".trace")

    def __init__(self) -> None:
        self._statuses: dict = {}

    def _status(self, section: bytes) -> BlockedStatus:
        """The status ``section`` decodes to, decoded only the first time
        the table meets those bytes (a refused section raises before the
        insert, so it is refused again every time it appears)."""
        statuses = self._statuses
        status = statuses.get(section)
        if status is None:
            status = _decode_status(section)
            if len(section) <= _TABLED_SECTION_BYTES:
                if len(statuses) >= _STATUS_TABLE:
                    statuses.clear()
                statuses[section] = status
        return status

    def encode_header(self, header: TraceHeader) -> bytes:
        """Magic + version byte + varint-length-prefixed meta JSON."""
        meta = _canonical_json(dict(header.meta)).encode("utf-8")
        out = bytearray(BINARY_MAGIC)
        out.extend(struct.pack("<B", header.version))
        _write_varint(out, len(_bounded(meta, "header meta")))
        out.extend(meta)
        return bytes(out)

    def encode_record(self, rec: TraceRecord) -> bytes:
        """One complete frame: varint length prefix + tagged body."""
        body = bytearray()
        body.append(_KIND_TAGS[rec.kind])
        _write_varint(body, rec.seq)
        kind = rec.kind
        if kind is RecordKind.BLOCK:
            _write_str(body, rec.task)
            _write_status(body, status_to_obj(rec.status))
        elif kind is RecordKind.UNBLOCK:
            _write_str(body, rec.task)
        elif kind in (RecordKind.REGISTER, RecordKind.ADVANCE):
            _write_str(body, rec.task)
            _write_str(body, rec.phaser)
            _write_varint(body, rec.phase)
        else:  # PUBLISH_DELTA
            delta = rec.payload
            _write_str(body, rec.site)
            _write_varint(body, int(delta.get("v", PROTOCOL_VERSION)))
            _write_str(body, str(delta["stream"]))
            _write_varint(body, int(delta["seq"]))
            body.append(_DELTA_KIND_TAGS[delta["kind"]])
            ops = delta["set"]
            _write_varint(body, len(ops))
            for task, blob in ops.items():
                _write_str(body, str(task))
                _write_status(body, blob)
            clear = delta["clear"]
            _write_varint(body, len(clear))
            for task in clear:
                _write_str(body, str(task))
            trace_ctx = delta.get("trace")
            if trace_ctx is not None:
                # Optional trailing section (the causal context): a
                # frame without one ends right after ``clear``.
                _write_str(body, _canonical_json(dict(trace_ctx)))
        frame = bytearray()
        _write_varint(frame, len(_bounded(body, "frame")))
        frame.extend(body)
        return bytes(frame)

    def lazy_record(self, body: memoryview) -> Union["ContextRecord", TraceRecord]:
        """One frame body as replay reads it.

        A ``register``/``advance`` frame, which replay classifies and
        skips, becomes a :class:`ContextRecord`; every other frame is
        decoded by :meth:`decode_record_frame`.  Either way every field
        is read and checked here.
        """
        kind = _CONTEXT_TAG_KINDS.get(body[0]) if body else None
        if kind is None:
            return self.decode_record_frame(body)
        seq, pos = _read_varint(body, 1)
        return ContextRecord(kind, seq, body, pos)

    def decode_record_frame(self, body: memoryview) -> TraceRecord:
        if len(body) == 0:
            raise TraceFormatError("empty frame")
        kind = _TAG_KINDS.get(body[0])
        if kind is None:
            raise TraceFormatError(f"unknown record tag {body[0]}")
        pos = 1
        seq, pos = _read_varint(body, pos)
        if kind is _BLOCK:
            # The status section runs to the end of the frame.
            task, pos = _read_str(body, pos)
            return TraceRecord(seq, kind, task, self._status(bytes(body[pos:])))
        if kind is _UNBLOCK:
            task, pos = _read_str(body, pos)
            rec = TraceRecord(seq, kind, task)
        elif body[0] in _CONTEXT_TAG_KINDS:
            ctx = ContextRecord(kind, seq, body, pos)
            return TraceRecord(seq, kind, ctx.task, None, ctx.phaser, ctx.phase)
        else:  # PUBLISH_DELTA
            site, pos = _read_str(body, pos)
            version, pos = _read_varint(body, pos)
            delta_stream, pos = _read_str(body, pos)
            delta_seq, pos = _read_varint(body, pos)
            if pos >= len(body):
                raise TraceFormatError("truncated delta frame")
            delta_kind = _TAG_DELTA_KINDS.get(body[pos])
            if delta_kind is None:
                raise TraceFormatError(f"unknown delta kind tag {body[pos]}")
            pos += 1
            n_tasks, pos = _read_varint(body, pos)
            ops = {}
            for _ in range(n_tasks):
                task, pos = _read_str(body, pos)
                ops[task], pos = _read_status(body, pos)
            n_clear, pos = _read_varint(body, pos)
            clear = []
            for _ in range(n_clear):
                task, pos = _read_str(body, pos)
                clear.append(task)
            obj = {
                "v": version,
                "stream": delta_stream,
                "seq": delta_seq,
                "kind": delta_kind,
                "set": ops,
                "clear": clear,
            }
            if pos < len(body):
                # Trailing causal-context section (optional).
                trace_json, pos = _read_str(body, pos)
                obj["trace"] = _parse_json(trace_json, "delta trace context")
            payload = delta_payload_from_obj(obj)
            rec = TraceRecord(seq=seq, kind=kind, site=site, payload=payload)
        if pos != len(body):
            raise TraceFormatError(f"{len(body) - pos} trailing bytes in frame")
        return rec


class ContextRecord:
    """A ``register``/``advance`` frame as replay reads it.

    The replay engines read only ``kind`` and ``seq`` of a context
    record, so :meth:`BinaryCodec.lazy_record` builds this slotted
    record instead of a frozen :class:`TraceRecord`.  Its ``task``,
    ``phaser`` and ``phase`` are still read and checked here, from
    ``body[pos:]`` (the frame past ``seq``) to the frame's end: invalid
    UTF-8, a truncated field or a trailing byte is a
    :class:`TraceFormatError` at that frame, as under a full decode.
    """

    __slots__ = ("kind", "seq", "task", "phaser", "phase")

    def __init__(self, kind: RecordKind, seq: int, body, pos: int) -> None:
        self.kind = kind
        self.seq = seq
        try:
            task_end = pos + 1 + body[pos]
            phaser_end = task_end + 1 + body[task_end]
            names = str(body[pos:phaser_end], "ascii")
        except (IndexError, UnicodeDecodeError):
            names = None  # not the usual frame: the reads below say why
        if names is not None and phaser_end < len(body):
            # One-byte lengths and ASCII names, the usual frame: one
            # decode checks and reads both names.
            self.phase, end = _read_varint(body, phaser_end)
            if end == len(body):
                split = task_end - pos
                self.task, self.phaser = names[1:split], names[split + 1:]
                return
        self.task, pos = _read_str(body, pos)
        self.phaser, pos = _read_str(body, pos)
        self.phase, pos = _read_varint(body, pos)
        if pos != len(body):
            raise TraceFormatError(f"{len(body) - pos} trailing bytes in frame")


# ---------------------------------------------------------------------------
# codec selection
# ---------------------------------------------------------------------------
CODECS = {c.name: c for c in (JsonlCodec(), BinaryCodec())}


def codec_for(path: PathLike, codec: Optional[str] = None):
    """Resolve a codec by explicit name or by ``path``'s extension."""
    if codec is not None:
        try:
            return CODECS[codec]
        except KeyError:
            raise TraceFormatError(
                f"unknown codec {codec!r} (have: {sorted(CODECS)})"
            ) from None
    suffix = pathlib.Path(path).suffix.lower()
    for c in CODECS.values():
        if suffix in c.extensions:
            return c
    return CODECS["jsonl"]


def _write_trace(trace: Trace, fp: BinaryIO, codec) -> None:
    """The one write loop: header, then every record."""
    fp.write(codec.encode_header(trace.header))
    for rec in trace.records:
        fp.write(codec.encode_record(rec))


def save_trace(trace: Trace, path: PathLike, codec: Optional[str] = None) -> pathlib.Path:
    """Write ``trace`` to ``path`` under the chosen (or inferred) codec."""
    path = pathlib.Path(path)
    chosen = codec_for(path, codec)
    with open(path, "wb") as fp:
        _write_trace(trace, fp, chosen)
    return path


def dumps(trace: Trace, codec: str = "jsonl") -> bytes:
    """Serialise ``trace`` to bytes (tests and in-memory round-trips)."""
    buf = io.BytesIO()
    _write_trace(trace, buf, CODECS[codec])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the one reader
# ---------------------------------------------------------------------------
def _text(raw, what: str) -> str:
    """Decode one header meta or JSONL line; bad UTF-8 is a format error."""
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{what} is not valid UTF-8") from exc


def _scan_frames(fp: BinaryIO, forgive_tail: bool) -> Iterator[memoryview]:
    """Zero-copy frame scan: chunked reads, ``memoryview`` slices.

    The file is read in chunks (memory stays O(chunk + frame), not
    O(file)) and each complete frame body inside a chunk is yielded as
    a slice of that chunk's buffer — no per-frame ``bytes`` copy and no
    byte-at-a-time varint reads.  A frame split across the chunk
    boundary carries its prefix into the next read (which grows with
    the carry: a frame spanning many chunks is copied O(1) times);
    leftover bytes at EOF are the crash tail ``forgive_tail`` governs.
    The chunk buffers are immutable ``bytes``, so a consumer holding a
    yielded slice keeps its chunk alive and valid.
    """
    tail = b""
    while True:
        chunk = fp.read(max(_SCAN_CHUNK, len(tail)))
        if not chunk:
            if tail and not forgive_tail:
                raise TraceFormatError("truncated frame at end of stream")
            return
        data = tail + chunk if tail else chunk
        buf = memoryview(data)
        end = len(buf)
        pos = 0
        while True:
            # Frame-length varint, tolerant of a chunk-boundary
            # split (p < 0 below means "need more data", which
            # is only truncation if the file ends here).
            if pos < end and buf[pos] < 0x80:  # a frame under 128 bytes
                length = buf[pos]
                p = pos + 1
            else:
                length = 0
                shift = 0
                p = pos
                while True:
                    if p >= end:
                        p = -1
                        break
                    byte = buf[p]
                    p += 1
                    length |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 63:
                        raise TraceFormatError("varint too long")
            if p < 0 or p + length > end:
                # Only a frame that would be waited for is measured: a
                # length past the ceiling is corruption under either
                # policy, never a tail worth buffering the file for.
                if p >= 0 and length > MAX_FRAME_BYTES:
                    raise TraceFormatError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
                break
            yield buf[p : p + length]
            pos = p + length
        tail = data[pos:] if pos < end else b""


def _scan_lines(fp: BinaryIO) -> Iterator[bytes]:
    """Non-blank JSONL lines, split on ``b"\\n"`` and nothing else (U+2028
    and friends are legal inside a JSON string), each within the ceiling."""
    while True:
        line = fp.readline(MAX_FRAME_BYTES + 1)
        if not line:
            return
        if _bounded(line, "line").strip():
            yield line


class TraceReader:
    """The only code that turns trace bytes into records.

    ``fp`` is a seekable binary file positioned at the start of a trace.
    Construction sniffs the codec from the first 8 bytes
    (:attr:`is_binary`) and parses the header (:attr:`header`) — a file
    that ends or goes wrong before its header is complete holds no
    replayable records, under either policy.  After that the reader is
    a single pass: :meth:`frames` hands out the raw units, iteration
    decodes each, :meth:`lazy_records` decodes each as replay reads it.

    Everything malformed is a :class:`TraceFormatError` at the frame or
    line that carries it: invalid UTF-8, a frame, header meta or line
    past :data:`MAX_FRAME_BYTES`, an unknown tag, a bad field.
    ``on_truncation="ignore"`` forgives exactly one thing — an
    unterminated final frame or line within the ceiling, what a recorder
    that died mid-write leaves behind — and yields every complete record
    before it.  Tolerance is for crashes, not for corruption.
    """

    def __init__(self, fp: BinaryIO, on_truncation: str = "error") -> None:
        if on_truncation not in TRUNCATION_POLICIES:
            raise ValueError(
                f"on_truncation must be one of {TRUNCATION_POLICIES}, "
                f"got {on_truncation!r}"
            )
        self._forgive_tail = on_truncation == "ignore"
        sniffed = fp.read(len(BINARY_MAGIC))
        self.is_binary = sniffed == BINARY_MAGIC
        if self.is_binary:
            # Past magic and version byte a binary trace is nothing but
            # length-prefixed frames; the first one holds the meta JSON.
            version = fp.read(1)
            self._frames = _scan_frames(fp, self._forgive_tail)
            meta = next(self._frames, None)
            if meta is None:
                raise TraceFormatError("truncated binary header")
            self.header = TraceHeader(
                version=version[0],
                meta=_parse_json(_text(meta, "header meta"), "binary header meta"),
            )
        else:
            fp.seek(-len(sniffed), io.SEEK_CUR)
            self._frames = _scan_lines(fp)
            line = next(self._frames, None)
            if line is None:
                raise TraceFormatError("empty trace file")
            self.header = CODECS["jsonl"].decode_header_line(
                _text(line, "header line")
            )

    def frames(self) -> Iterator[Union[memoryview, bytes]]:
        """The undecoded rest of the file: binary frame bodies as zero-copy
        ``memoryview`` slices of the scan's chunks (``decode_record_frame``
        and ``lazy_record`` take one), or JSONL lines as ``bytes``."""
        return self._frames

    def __iter__(self) -> Iterator[TraceRecord]:
        if self.is_binary:
            # A codec of its own: the pass's status table dies with it.
            return map(BinaryCodec().decode_record_frame, self._frames)
        return self._decode_lines()

    def _decode_lines(self) -> Iterator[TraceRecord]:
        decode = CODECS["jsonl"].decode_record_line
        for line in self._frames:
            try:
                rec = decode(_text(line, "record line"))
            except TraceFormatError:
                # A crash tail is an unterminated partial line, so only
                # the last line of the file can be one; a bad line that
                # got its newline is corruption, not a crash.
                if self._forgive_tail and not line.endswith(b"\n"):
                    return
                raise
            yield rec

    def lazy_records(self) -> Iterator[Union[ContextRecord, TraceRecord]]:
        """Iterate records as replay reads them.

        Binary ``register``/``advance`` frames come back as
        :class:`ContextRecord`s, every other frame as under
        :meth:`__iter__`; both are validated in full, so this iteration
        refuses exactly the files :meth:`__iter__` refuses.  JSONL has no
        framed fast path and yields the eagerly decoded records.
        """
        if self.is_binary:
            return map(BinaryCodec().lazy_record, self._frames)
        return iter(self)


def load_trace(path: PathLike) -> Trace:
    """Read a trace from ``path``, sniffing the codec from its magic."""
    with open(path, "rb") as fp:
        reader = TraceReader(fp)
        return Trace(reader.header, tuple(reader))


def loads(data: bytes) -> Trace:
    """Deserialise bytes produced by :func:`dumps` (codec sniffed)."""
    reader = TraceReader(io.BytesIO(data))
    return Trace(reader.header, tuple(reader))
