"""Two interchangeable trace codecs: JSONL (debuggable) and framed
binary (fast and compact).

**JSONL** writes one JSON object per line: the header first (carrying the
magic and version), then one object per record.  It is grep-able,
diff-able and editable — the format of choice while developing a
scenario or inspecting a failure.

**Framed binary** writes a fixed magic + version prefix followed by
length-prefixed frames, one per record.  Integers use LEB128 varints,
strings are varint-length-prefixed UTF-8, and each frame opens with a
one-byte kind tag — a record can be decoded without touching the rest of
the file, and truncation or corruption is detected at the frame
boundary.  Binary files come out roughly a quarter the size of their
JSONL twins (the ``trace.codec.*`` per-layer metrics of
``benchmarks/e2e/`` track decode and encode throughput).

:func:`save_trace` / :func:`load_trace` pick the codec from the file
extension (``.jsonl`` vs ``.bin``/``.trace``) or from the leading magic
bytes, so callers rarely name a codec explicitly.

Both codecs expose a *per-record* surface on top of which the eager
``dump``/``load`` methods are built: ``encode_header``/``encode_record``
produce the bytes for one header or record (what the spill-to-disk
:class:`~repro.trace.stream.StreamingRecorder` appends as events
arrive), and ``decode_record_*`` turn one frame or line back into a
:class:`~repro.trace.events.TraceRecord` (what the incremental readers
in :mod:`repro.trace.stream` call per frame).  Whole-file and streaming
I/O therefore cannot drift apart — they share the same record coders.
"""

from __future__ import annotations

import io
import json
import pathlib
import struct
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple, Union

from repro.trace.events import (
    Trace,
    TraceFormatError,
    TraceHeader,
    TraceRecord,
    RecordKind,
    TRACE_MAGIC,
    TRACE_VERSION,
    delta_payload_from_obj,
    status_from_obj,
    status_to_obj,
)

PathLike = Union[str, pathlib.Path]

#: 8-byte magic prefix of a binary trace file.
BINARY_MAGIC = b"ARMUSTRC"

_KIND_TAGS = {
    RecordKind.BLOCK: 1,
    RecordKind.UNBLOCK: 2,
    RecordKind.REGISTER: 3,
    RecordKind.ADVANCE: 4,
    RecordKind.PUBLISH: 5,
    RecordKind.PUBLISH_DELTA: 6,
}

#: Binary bytes for the two delta kinds (PUBLISH_DELTA frames).
_DELTA_KIND_TAGS = {"delta": 0, "snapshot": 1}
_TAG_DELTA_KINDS = {tag: kind for kind, tag in _DELTA_KIND_TAGS.items()}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}


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
        seq = int(obj["seq"])
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"malformed record object: {obj!r}") from exc
    status = None
    if "status" in obj:
        status = status_from_obj(obj["status"])
    payload = obj.get("payload")
    if kind is RecordKind.PUBLISH and payload is not None:
        # Validate every bucket entry up front: a malformed blob must be
        # a TraceFormatError at load time, not a KeyError mid-replay.
        if not isinstance(payload, dict):
            raise TraceFormatError(f"publish payload is not an object: {payload!r}")
        for blob in payload.values():
            status_from_obj(blob)
    if kind is RecordKind.PUBLISH_DELTA and payload is not None:
        if not isinstance(payload, dict):
            raise TraceFormatError(f"delta payload is not an object: {payload!r}")
        payload = delta_payload_from_obj(payload)
    try:
        return TraceRecord(
            seq=seq,
            kind=kind,
            task=obj.get("task"),
            status=status,
            phaser=obj.get("phaser"),
            phase=obj.get("phase"),
            site=obj.get("site"),
            payload=payload,
        )
    except TraceFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed record object: {obj!r}") from exc


class JsonlCodec:
    """One JSON object per line; human-readable reference codec."""

    name = "jsonl"
    extensions = (".jsonl", ".json")

    # -- per-record surface (shared by eager and streaming I/O) --------
    def encode_header(self, header: TraceHeader) -> bytes:
        """The header line (including the trailing newline)."""
        obj = {
            "magic": TRACE_MAGIC,
            "version": header.version,
            "meta": dict(header.meta),
        }
        return (json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode(
            "utf-8"
        )

    def encode_record(self, rec: TraceRecord) -> bytes:
        """One record line (including the trailing newline)."""
        return (
            json.dumps(_record_to_obj(rec), separators=(",", ":"), sort_keys=True) + "\n"
        ).encode("utf-8")

    def decode_header_line(self, line: str) -> TraceHeader:
        """Parse the header line; reject bad magic or versions."""
        try:
            header_obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"unparseable header line: {line[:80]!r}") from exc
        if not isinstance(header_obj, dict) or header_obj.get("magic") != TRACE_MAGIC:
            raise TraceFormatError("not an armus trace (bad magic)")
        return TraceHeader(
            version=int(header_obj.get("version", -1)),
            meta=header_obj.get("meta", {}),
        )

    def decode_record_line(self, line: str) -> TraceRecord:
        """Parse one record line back into a :class:`TraceRecord`."""
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"unparseable record line: {line[:80]!r}") from exc
        return _record_from_obj(obj)

    # -- whole-file methods --------------------------------------------
    def dump(self, trace: Trace, fp: BinaryIO) -> None:
        """Write ``trace`` to the binary file object ``fp``."""
        fp.write(self.encode_header(trace.header))
        for rec in trace.records:
            fp.write(self.encode_record(rec))

    def load(self, fp: BinaryIO) -> Trace:
        """Read a trace from ``fp``; reject anything malformed."""
        try:
            text = fp.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError("not a UTF-8 JSONL trace") from exc
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise TraceFormatError("empty trace file")
        header = self.decode_header_line(lines[0])
        records: List[TraceRecord] = []
        for line in lines[1:]:
            records.append(self.decode_record_line(line))
        return Trace(header=header, records=tuple(records))


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
    length, pos = _read_varint(buf, pos)
    if pos + length > len(buf):
        raise TraceFormatError("truncated string")
    value = bytes(buf[pos : pos + length]).decode("utf-8")
    return value, pos + length


def _write_status(out: bytearray, obj: dict) -> None:
    """Encode one status wire dict (see ``status_to_obj``)."""
    _write_varint(out, int(obj.get("generation", 0)))
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


def _read_status(buf: memoryview, pos: int) -> Tuple[dict, int]:
    generation, pos = _read_varint(buf, pos)
    n_waits, pos = _read_varint(buf, pos)
    waits = []
    for _ in range(n_waits):
        phaser, pos = _read_str(buf, pos)
        phase, pos = _read_varint(buf, pos)
        waits.append([phaser, phase])
    n_reg, pos = _read_varint(buf, pos)
    registered = {}
    for _ in range(n_reg):
        phaser, pos = _read_str(buf, pos)
        phase, pos = _read_varint(buf, pos)
        registered[phaser] = phase
    return {"waits": waits, "registered": registered, "generation": generation}, pos


class BinaryCodec:
    """Length-prefixed frames with varint fields; the fast codec."""

    name = "binary"
    extensions = (".bin", ".trace")

    # -- per-record surface (shared by eager and streaming I/O) --------
    def encode_header(self, header: TraceHeader) -> bytes:
        """Magic + version byte + varint-length-prefixed meta JSON."""
        meta = json.dumps(dict(header.meta), separators=(",", ":"), sort_keys=True)
        out = bytearray(BINARY_MAGIC)
        out.extend(struct.pack("<B", header.version))
        _write_str(out, meta)
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
        elif kind is RecordKind.PUBLISH:
            _write_str(body, rec.site)
            _write_varint(body, len(rec.payload))
            for task, blob in rec.payload.items():
                _write_str(body, str(task))
                _write_status(body, blob)
        else:  # PUBLISH_DELTA
            delta = rec.payload
            _write_str(body, rec.site)
            _write_varint(body, int(delta.get("v", 1)))
            _write_str(body, str(delta["stream"]))
            _write_varint(body, int(delta["seq"]))
            body.append(_DELTA_KIND_TAGS[delta["kind"]])
            for section in ("set", "restore"):
                ops = delta[section]
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
                # Optional trailing section (v2+ causal context): frames
                # that end right after ``clear`` stay decodable, so old
                # recordings load unchanged.
                _write_str(
                    body,
                    json.dumps(
                        dict(trace_ctx), separators=(",", ":"), sort_keys=True
                    ),
                )
        frame = bytearray()
        _write_varint(frame, len(body))
        frame.extend(body)
        return bytes(frame)

    def decode_meta(self, meta_json: str) -> dict:
        """Parse the header's meta JSON; wrap errors as format errors."""
        try:
            return json.loads(meta_json)
        except json.JSONDecodeError as exc:
            raise TraceFormatError("unparseable binary header meta") from exc

    # -- zero-copy frame scan ------------------------------------------
    def scan_frames(
        self, buf: Union[bytes, memoryview], pos: int = 0
    ) -> Iterator[memoryview]:
        """Walk framed records as zero-copy ``memoryview`` slices.

        ``buf`` must start at a frame boundary (``pos`` past the header
        for a whole-file buffer).  Each yielded slice is one frame body
        — no bytes are copied and nothing is decoded; feed a slice to
        :meth:`decode_record_frame` for the record or to
        :meth:`lazy_record` for a decode-on-demand view.  A frame
        running past the end of the buffer raises
        :class:`TraceFormatError` ("truncated frame").
        """
        if not isinstance(buf, memoryview):
            buf = memoryview(buf)
        end = len(buf)
        while pos < end:
            length, pos = _read_varint(buf, pos)
            if pos + length > end:
                raise TraceFormatError("truncated frame")
            yield buf[pos : pos + length]
            pos += length

    def lazy_record(self, body: memoryview) -> "LazyRecord":
        """A decode-on-demand view of one frame body.

        The kind tag and ``seq`` are decoded eagerly (one byte plus one
        varint — enough to classify and order the record, and unknown
        tags fail as loudly here as under eager decoding); everything
        else waits for first field access.
        """
        if len(body) == 0:
            raise TraceFormatError("empty frame")
        kind = _TAG_KINDS.get(body[0])
        if kind is None:
            raise TraceFormatError(f"unknown record tag {body[0]}")
        seq, _ = _read_varint(body, 1)
        return LazyRecord(kind, seq, body)

    # -- whole-file methods --------------------------------------------
    def dump(self, trace: Trace, fp: BinaryIO) -> None:
        """Write ``trace`` to the binary file object ``fp``."""
        fp.write(self.encode_header(trace.header))
        for rec in trace.records:
            fp.write(self.encode_record(rec))

    def load(self, fp: BinaryIO) -> Trace:
        """Read a trace from ``fp``; reject anything malformed."""
        data = fp.read()
        if not data.startswith(BINARY_MAGIC):
            raise TraceFormatError("not a binary armus trace (bad magic)")
        if len(data) < len(BINARY_MAGIC) + 1:
            raise TraceFormatError("truncated binary header")
        version = data[len(BINARY_MAGIC)]
        buf = memoryview(data)
        pos = len(BINARY_MAGIC) + 1
        meta_json, pos = _read_str(buf, pos)
        header = TraceHeader(version=version, meta=self.decode_meta(meta_json))
        decode = self.decode_record_frame
        records = tuple(decode(body) for body in self.scan_frames(buf, pos))
        return Trace(header=header, records=records)

    def decode_record_frame(self, body: memoryview) -> TraceRecord:
        if len(body) == 0:
            raise TraceFormatError("empty frame")
        kind = _TAG_KINDS.get(body[0])
        if kind is None:
            raise TraceFormatError(f"unknown record tag {body[0]}")
        pos = 1
        seq, pos = _read_varint(body, pos)
        if kind is RecordKind.BLOCK:
            task, pos = _read_str(body, pos)
            status_obj, pos = _read_status(body, pos)
            rec = TraceRecord(
                seq=seq, kind=kind, task=task, status=status_from_obj(status_obj)
            )
        elif kind is RecordKind.UNBLOCK:
            task, pos = _read_str(body, pos)
            rec = TraceRecord(seq=seq, kind=kind, task=task)
        elif kind in (RecordKind.REGISTER, RecordKind.ADVANCE):
            task, pos = _read_str(body, pos)
            phaser, pos = _read_str(body, pos)
            phase, pos = _read_varint(body, pos)
            rec = TraceRecord(seq=seq, kind=kind, task=task, phaser=phaser, phase=phase)
        elif kind is RecordKind.PUBLISH:
            site, pos = _read_str(body, pos)
            n_tasks, pos = _read_varint(body, pos)
            payload = {}
            for _ in range(n_tasks):
                task, pos = _read_str(body, pos)
                blob, pos = _read_status(body, pos)
                payload[task] = blob
            rec = TraceRecord(seq=seq, kind=kind, site=site, payload=payload)
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
            sections = []
            for _ in range(2):  # set, then restore
                n_tasks, pos = _read_varint(body, pos)
                ops = {}
                for _ in range(n_tasks):
                    task, pos = _read_str(body, pos)
                    blob, pos = _read_status(body, pos)
                    ops[task] = blob
                sections.append(ops)
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
                "set": sections[0],
                "restore": sections[1],
                "clear": clear,
            }
            if pos < len(body):
                # Trailing causal-context section (absent in old frames).
                trace_json, pos = _read_str(body, pos)
                try:
                    obj["trace"] = json.loads(trace_json)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(
                        "unparseable delta trace context"
                    ) from exc
            payload = delta_payload_from_obj(obj)
            rec = TraceRecord(seq=seq, kind=kind, site=site, payload=payload)
        if pos != len(body):
            raise TraceFormatError(f"{len(body) - pos} trailing bytes in frame")
        return rec


class LazyRecord:
    """A binary frame posing as a :class:`TraceRecord`, decoded on need.

    ``kind`` and ``seq`` are plain attributes set by
    :meth:`BinaryCodec.lazy_record`; reading any other record field
    (``task``, ``status``, ``payload``, ...) materialises the full
    :class:`TraceRecord` through ``decode_record_frame`` on first access
    and delegates.  Consumers that classify records before touching
    their fields — the replay engines read only ``kind`` and ``seq``
    from register/advance context records — therefore never pay for
    decoding the frames they skip.

    The flip side: a frame whose *interior* is malformed only raises
    when (and if) it is materialised, where eager decoding raises at
    scan time.  The frame envelope (length, kind tag) is still
    validated up front, so truncation and unknown-tag corruption stay
    as loud as ever.  The view holds its ``memoryview`` slice, keeping
    the underlying buffer alive for as long as the record is.
    """

    __slots__ = ("kind", "seq", "_body", "_rec")

    def __init__(self, kind: RecordKind, seq: int, body: memoryview) -> None:
        self.kind = kind
        self.seq = seq
        self._body = body
        self._rec = None

    def materialize(self) -> TraceRecord:
        """Decode (once) and return the full record."""
        rec = self._rec
        if rec is None:
            rec = self._rec = CODECS["binary"].decode_record_frame(self._body)
        return rec

    def __getattr__(self, name: str):
        # Only fires for names outside __slots__ — i.e. the record
        # fields that genuinely need the full decode.
        return getattr(self.materialize(), name)

    def __repr__(self) -> str:
        state = "decoded" if self._rec is not None else "undecoded"
        return f"<LazyRecord kind={self.kind.value} seq={self.seq} {state}>"


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


def save_trace(trace: Trace, path: PathLike, codec: Optional[str] = None) -> pathlib.Path:
    """Write ``trace`` to ``path`` under the chosen (or inferred) codec."""
    path = pathlib.Path(path)
    chosen = codec_for(path, codec)
    with open(path, "wb") as fp:
        chosen.dump(trace, fp)
    return path


def load_trace(path: PathLike) -> Trace:
    """Read a trace from ``path``, sniffing the codec from its magic."""
    path = pathlib.Path(path)
    with open(path, "rb") as fp:
        prefix = fp.read(len(BINARY_MAGIC))
        fp.seek(0)
        if prefix == BINARY_MAGIC:
            return CODECS["binary"].load(fp)
        return CODECS["jsonl"].load(fp)


def dumps(trace: Trace, codec: str = "jsonl") -> bytes:
    """Serialise ``trace`` to bytes (tests and in-memory round-trips)."""
    buf = io.BytesIO()
    CODECS[codec].dump(trace, buf)
    return buf.getvalue()


def loads(data: bytes) -> Trace:
    """Deserialise bytes produced by :func:`dumps` (codec sniffed)."""
    if data.startswith(BINARY_MAGIC):
        return CODECS["binary"].load(io.BytesIO(data))
    return CODECS["jsonl"].load(io.BytesIO(data))
