"""The zero-copy codec scan and the records replay reads.

Four layers of pins:

* :meth:`TraceReader.frames` — frame slicing without copying or
  decoding: slices reproduce the framed bodies exactly, truncation is
  loud, and a frame split across a chunk boundary at any offset comes
  out whole.
* :class:`ContextRecord` / :meth:`BinaryCodec.lazy_record` — a
  register/advance frame is read and checked in full at scan time but
  never built into a :class:`TraceRecord`; every other frame is decoded
  once, up front; unknown tags, empty frames and a malformed context
  frame fail at scan time.
* :meth:`StreamedTrace.lazy_records` and the replay engines — this
  iteration yields the same logical records as eager loading, replay
  results are unchanged, and the engines really do skip the full decode
  of the register/advance context frames (the point of the fast path).
* The status table — a block frame's status section is decoded the
  first time its bytes are met, equal sections share one status, the
  table keeps its bound, and a malformed section is never kept.
"""

from __future__ import annotations

import io

import pytest

from repro.core.dependency import ResourceDependency
from repro.core.events import waiting_on
from repro.trace import codec as codec_mod
from repro.trace import events as ev
from repro.trace.codec import (
    CODECS,
    BinaryCodec,
    ContextRecord,
    TraceFormatError,
    TraceReader,
    dumps,
    loads,
)
from repro.trace.corpus import AioSpec, ScenarioSpec, build_trace
from repro.trace.events import RecordKind, Trace, TraceHeader, TraceRecord
from repro.trace.replay import replay
from repro.trace.stream import iter_load

BINARY = CODECS["binary"]
CONTEXT = (RecordKind.REGISTER, RecordKind.ADVANCE)

SPEC = ScenarioSpec(cycle_len=3, fan_out=2, sites=1, rounds=2, deadlock=False)
SPEC_DL = ScenarioSpec(cycle_len=2, fan_out=1, sites=1, rounds=1, deadlock=True)


def as_trace_record(rec):
    """``rec``, a :class:`ContextRecord` as the :class:`TraceRecord`
    whose fields it carries."""
    if type(rec) is ContextRecord:
        return TraceRecord(rec.seq, rec.kind, rec.task, None, rec.phaser, rec.phase)
    return rec


@pytest.fixture(scope="module")
def trace():
    return build_trace(SPEC)


@pytest.fixture(scope="module")
def blob(trace):
    return dumps(trace, "binary")


class ChunkLog(io.BytesIO):
    """A ``BytesIO`` that remembers every chunk ``read`` handed out."""

    def __init__(self, data):
        super().__init__(data)
        self.chunks = []

    def read(self, size=-1):
        chunk = super().read(size)
        self.chunks.append(chunk)
        return chunk


def frames_of(blob):
    """The record frames of ``blob``, the way every loader scans them."""
    fp = ChunkLog(blob)
    return TraceReader(fp).frames(), fp


class TestScanFrames:
    def test_slices_are_zero_copy_views(self, blob):
        frames, fp = frames_of(blob)
        first = next(frames)
        assert isinstance(first, memoryview)
        # magic, version byte, then the one chunk the whole blob fits in
        assert first.obj is fp.chunks[2]  # a view of the chunk read

    def test_scan_decodes_to_eager_records(self, trace, blob):
        frames, _ = frames_of(blob)
        decoded = [BINARY.decode_record_frame(body) for body in frames]
        assert tuple(decoded) == trace.records

    def test_truncated_frame_raises(self, blob):
        frames, _ = frames_of(blob[:-3])
        with pytest.raises(TraceFormatError, match="truncated frame"):
            list(frames)

    def test_empty_body_yields_nothing(self):
        header = BINARY.encode_header(TraceHeader(meta={}))
        assert list(TraceReader(io.BytesIO(header)).frames()) == []

    @pytest.mark.parametrize("chunk", [7, 64, 4096])
    def test_frame_split_at_every_offset_decodes_identically(
        self, monkeypatch, chunk
    ):
        """Pad the header one byte at a time so the first chunk boundary
        (9 header bytes + one chunk into the file) walks across a frame:
        wherever it falls the frames come out whole."""
        monkeypatch.setattr(codec_mod, "_SCAN_CHUNK", chunk)
        records = build_trace(
            ScenarioSpec(cycle_len=3, fan_out=2, sites=2, rounds=24)
        ).records
        frames = [BINARY.encode_record(rec) for rec in records]
        assert sum(map(len, frames)) > 2 * 4096
        split_at = {}  # frame length -> offsets the first boundary hit
        for pad in range(max(map(len, frames)) + 2):
            header = BINARY.encode_header(TraceHeader(meta={"pad": "x" * pad}))
            fp = ChunkLog(header + b"".join(frames))
            reader = TraceReader(fp)
            assert tuple(reader) == records
            assert len(fp.chunks) > 4, "the scan never crossed a boundary"
            # Where in its frame did the first boundary fall?
            boundary, offset = 9 + chunk, len(header)
            for frame in frames:
                if offset <= boundary < offset + len(frame):
                    split_at.setdefault(len(frame), set()).add(boundary - offset)
                    break
                offset += len(frame)
        if chunk > 7:  # (7 bytes in, the first boundary is still in the meta)
            assert any(
                hit == set(range(length)) for length, hit in split_at.items()
            ), "no frame was split at every one of its offsets"

    def test_a_scanned_record_outlives_its_chunk(self, monkeypatch, trace, blob):
        """A record read from a slice stays whole after the scan has
        moved three chunks on (chunks are immutable, never reused)."""
        monkeypatch.setattr(codec_mod, "_SCAN_CHUNK", 64)
        fp = ChunkLog(blob)
        lazies = TraceReader(fp).lazy_records()
        first = next(lazies)
        reads = len(fp.chunks)
        while len(fp.chunks) < reads + 3:
            next(lazies)
        assert as_trace_record(first) == trace.records[0]


class TestContextRecord:
    def test_context_frames_skip_the_full_decode(self, monkeypatch, trace, blob):
        """A context frame never reaches ``decode_record_frame``; every
        other frame is decoded exactly once, up front."""
        calls = []
        real = BINARY.decode_record_frame
        monkeypatch.setattr(
            type(BINARY), "decode_record_frame",
            lambda self, body: calls.append(1) or real(body),
        )
        frames, _ = frames_of(blob)
        records = [BINARY.lazy_record(body) for body in frames]
        kinds = [(rec.kind, rec.seq) for rec in records]
        for rec in records:
            expected = ContextRecord if rec.kind in CONTEXT else TraceRecord
            assert type(rec) is expected, rec
        decoded = sum(1 for r in trace.records if r.kind not in CONTEXT)
        assert 0 < decoded < len(trace.records)
        assert len(calls) == decoded, "a context frame took the full decode"
        assert all(isinstance(k, RecordKind) for k, _ in kinds)
        assert [s for _, s in kinds] == sorted(s for _, s in kinds)

    def test_fields_are_read_at_scan_time(self, trace, blob):
        frames, _ = frames_of(blob)
        context = BINARY.lazy_record(next(frames))
        eager = trace.records[0]
        assert type(context) is ContextRecord and context.kind is eager.kind
        assert (context.seq, context.task, context.phaser, context.phase) == (
            eager.seq, eager.task, eager.phaser, eager.phase)

    def test_unknown_tag_raises_at_scan_time(self):
        with pytest.raises(TraceFormatError, match="unknown record tag"):
            BINARY.lazy_record(memoryview(b"\xfe\x01"))

    def test_empty_frame_raises(self):
        with pytest.raises(TraceFormatError, match="empty frame"):
            BINARY.lazy_record(memoryview(b""))

    @pytest.mark.parametrize("task, phaser, phase", [
        ("t1", "p", 0),
        ("tâche", "φ", 5),  # names past ASCII
        ("t" * 200, "p" * 130, 1),  # two-byte lengths
        ("t1", "p", 300),  # a two-byte phase
    ], ids=["ascii", "utf8", "long-names", "big-phase"])
    def test_every_name_and_phase_reads_back(self, task, phaser, phase):
        frame = BINARY.encode_record(ev.register(7, task, phaser, phase))
        _, start = codec_mod._read_varint(memoryview(frame), 0)
        body = memoryview(frame)[start:]
        context = BINARY.lazy_record(body)
        assert (context.seq, context.task, context.phaser, context.phase) == (
            7, task, phaser, phase)
        assert BINARY.decode_record_frame(body) == as_trace_record(context)

    @pytest.mark.parametrize("cut, match", [
        (lambda body: body.replace(b"PH", b"\xffH"), "UTF-8"),
        (lambda body: body[:-2], "truncated"),
        (lambda body: body + b"\x00", "trailing bytes"),
    ], ids=["bad-utf8", "truncated-field", "trailing-byte"])
    def test_a_malformed_context_frame_raises_at_scan_time(self, cut, match):
        """Every byte of a context frame is checked when it is scanned,
        as when it is decoded in full."""
        frame = BINARY.encode_record(ev.advance(0, "t", "PHASER", 300))
        _, start = codec_mod._read_varint(memoryview(frame), 0)
        body = cut(frame[start:])
        for read in (BINARY.lazy_record, BINARY.decode_record_frame):
            with pytest.raises(TraceFormatError, match=match):
                read(memoryview(body))


class TestLazyStream:
    @pytest.mark.parametrize("spec", [SPEC, SPEC_DL], ids=lambda s: s.name)
    def test_lazy_records_match_eager_iteration(self, tmp_path, spec):
        trace = build_trace(spec)
        path = tmp_path / "t.trace"
        path.write_bytes(dumps(trace, "binary"))
        stream = iter_load(path)
        lazy = list(stream.lazy_records())
        assert [type(r) for r in lazy] == [
            ContextRecord if r.kind in CONTEXT else TraceRecord
            for r in trace.records
        ]
        assert tuple(map(as_trace_record, lazy)) == trace.records
        # plain iteration still yields eager records, unchanged
        assert tuple(iter_load(path)) == trace.records

    def test_lazy_records_on_jsonl_falls_back_to_eager(self, tmp_path):
        trace = build_trace(SPEC)
        path = tmp_path / "t.jsonl"
        path.write_bytes(dumps(trace, "jsonl"))
        lazy = tuple(iter_load(path).lazy_records())
        assert lazy == trace.records  # no framing to scan: real records

    @pytest.mark.parametrize("spec", [SPEC, SPEC_DL], ids=lambda s: s.name)
    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["classic", "incremental"])
    def test_replay_over_lazy_stream_matches_eager(
        self, tmp_path, spec, incremental
    ):
        trace = build_trace(spec)
        path = tmp_path / "t.trace"
        path.write_bytes(dumps(trace, "binary"))
        eager = replay(trace, check_every=1, incremental=incremental)
        streamed = replay(
            iter_load(path), check_every=1, incremental=incremental
        )
        assert streamed.reports == eager.reports
        assert streamed.checks_run == eager.checks_run
        assert streamed.records_processed == eager.records_processed

    def test_replay_skips_decoding_context_frames(
        self, monkeypatch, tmp_path
    ):
        """The fast path's payoff, pinned: replaying a streamed binary
        trace fully decodes only the records the engine inspects —
        register/advance context frames are checked, but never built
        into a :class:`TraceRecord`."""
        trace = build_trace(SPEC)
        path = tmp_path / "t.trace"
        path.write_bytes(dumps(trace, "binary"))
        context = sum(
            1 for r in trace.records
            if r.kind in (RecordKind.REGISTER, RecordKind.ADVANCE)
        )
        assert context > 0, "scenario produced no context records"
        decoded = []
        real = type(BINARY).decode_record_frame
        monkeypatch.setattr(
            type(BINARY), "decode_record_frame",
            lambda self, body: decoded.append(1) or real(self, body),
        )
        result = replay(iter_load(path), check_every=1)
        assert result.records_processed == len(trace.records)
        assert len(decoded) == len(trace.records) - context


@pytest.fixture
def decoded(monkeypatch):
    """The sections the status decoder is called with during the test."""
    calls = []
    real = codec_mod._decode_status
    monkeypatch.setattr(
        codec_mod, "_decode_status",
        lambda section: calls.append(section) or real(section),
    )
    return calls


def block_frames(section: bytes, times: int) -> bytes:
    """A binary trace of ``times`` block frames carrying ``section``."""
    out = bytearray(BINARY.encode_header(TraceHeader(meta={})))
    for seq in range(times):
        body = bytearray([codec_mod._KIND_TAGS[RecordKind.BLOCK]])
        codec_mod._write_varint(body, seq)
        codec_mod._write_str(body, f"t{seq}")
        body += section
        codec_mod._write_varint(out, len(body))
        out += body
    return bytes(out)


class TestStatusTable:
    def test_a_repeated_section_is_decoded_once(self, tmp_path, decoded):
        """The benchmark's churn trace: every barrier phase blocks its
        tasks with one status, so 16 002 block frames hold 2 002
        distinct sections, and each is decoded once per read."""
        path = tmp_path / "churn.trace"
        path.write_bytes(dumps(
            build_trace(AioSpec(tasks=2000, shape="churn", deadlock=False)),
            "binary",
        ))
        for _ in range(2):  # every read starts from an empty table
            decoded.clear()
            blocks = sum(
                1 for rec in iter_load(path).lazy_records()
                if rec.kind is RecordKind.BLOCK
            )
            assert blocks == 16_002
            assert len(decoded) == len(set(decoded)) == 2_002

    def test_equal_sections_share_one_status_and_each_task_stays_current(self, decoded):
        status = waiting_on("p", 1, p=1, q=0)
        trace = Trace(TraceHeader(meta={}), (
            ev.block(0, "a", status),
            ev.block(1, "b", status),
            ev.unblock(2, "a"),
            ev.block(3, "a", status),
        ))
        shared = [rec.status for rec in loads(dumps(trace, "binary")).records
                  if rec.kind is RecordKind.BLOCK]
        assert len(decoded) == 1
        assert shared[0] == status
        assert all(s is shared[0] for s in shared)
        # Currency is per task, by identity: the one shared object is
        # current for each task that holds it, and a clear of one task
        # leaves the other's untouched.
        store = ResourceDependency()
        store.set_blocked("a", shared[0])
        store.set_blocked("b", shared[1])
        assert store.is_current("a", shared[0]) and store.is_current("b", shared[0])
        store.clear("a")
        assert not store.is_current("a", shared[0])
        assert store.is_current("b", shared[0])
        store.set_blocked("a", shared[2])
        assert store.is_current("a", shared[0]) and store.is_current("b", shared[0])

    def test_the_table_keeps_its_bound_on_an_all_distinct_ring(self, decoded):
        ring = build_trace(AioSpec(tasks=600, shape="cycle", deadlock=True))
        codec, sizes = BinaryCodec(), []
        for body in TraceReader(io.BytesIO(dumps(ring, "binary"))).frames():
            codec.lazy_record(body)
            sizes.append(len(codec._statuses))
        blocks = sum(1 for r in ring.records if r.kind is RecordKind.BLOCK)
        assert len(decoded) == blocks > 2 * codec_mod._STATUS_TABLE
        assert max(sizes) == codec_mod._STATUS_TABLE

    def test_a_long_section_is_decoded_but_not_kept(self, decoded):
        status = waiting_on("p", 1, p=1, **{f"q{i}": 0 for i in range(300)})
        trace = Trace(TraceHeader(meta={}), (
            ev.block(0, "a", status), ev.block(1, "b", status),
        ))
        data = dumps(trace, "binary")
        assert len(data) > 2 * codec_mod._TABLED_SECTION_BYTES
        codec = BinaryCodec()  # what a reader's pass decodes with
        frames = TraceReader(io.BytesIO(data)).frames()
        assert tuple(map(codec.lazy_record, frames)) == trace.records
        assert len(decoded) == 2
        assert not codec._statuses

    def test_a_malformed_section_is_refused_every_time(self, decoded):
        """A section that waits on nothing raises before it is stored, so
        its second appearance in one read is decoded — and refused —
        again."""
        data = block_frames(b"\x00\x00", times=2)  # 0 waits, 0 phasers
        codec = BinaryCodec()
        for body in TraceReader(io.BytesIO(data)).frames():
            with pytest.raises(TraceFormatError, match="at least one event"):
                codec.lazy_record(body)
        assert len(decoded) == 2
        assert not codec._statuses
