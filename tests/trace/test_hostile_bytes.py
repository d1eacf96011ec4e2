"""One hostile table for the one reader.

Every way a trace file can be opened — ``loads``, ``load_trace``,
``iter_load`` under both truncation policies, ``lazy_records()``, and
``replay(path)``, which reads a file the way ``lazy_records()`` does — is
a caller of :class:`~repro.trace.codec.TraceReader`, so every row below
is pushed through all of them and they must agree: the same header and
records, or :class:`TraceFormatError`.  Never another exception type (anything else
escapes :func:`verdicts` and fails the test), never a different answer
per door.

The two policies may differ in exactly one way: where ``error`` refuses
a file, ``ignore`` may instead stop in front of an unterminated final
frame or line.  Where ``error`` loads, ``ignore`` loads the same.
"""

from __future__ import annotations

import itertools
import pathlib
import time
import tracemalloc

import pytest

from repro.core.events import BlockedStatus, Event, waiting_on
from repro.distributed.delta import DeltaSequenceError
from repro.trace import codec as codec_mod
from repro.trace import events as ev
from repro.trace.cli import main
from repro.trace.codec import (
    BINARY_MAGIC,
    CODECS,
    ContextRecord,
    dumps,
    load_trace,
    loads,
)
from repro.trace.events import Trace, TraceFormatError, TraceHeader, TraceRecord
from repro.trace.replay import replay
from repro.trace.stream import iter_load

CODEC_NAMES = ("binary", "jsonl")
REFUSED = "TraceFormatError"
JSONL_HEADER = b'{"magic":"armus-trace","version":4,"meta":{}}\n'


# ---------------------------------------------------------------------------
# the doors
# ---------------------------------------------------------------------------
def materialized(records):
    """The records, a :class:`ContextRecord` as the :class:`TraceRecord`
    whose fields it carries."""
    return tuple(
        TraceRecord(rec.seq, rec.kind, rec.task, None, rec.phaser, rec.phase)
        if isinstance(rec, ContextRecord) else rec
        for rec in records
    )


def _streamed(path, policy, lazy):
    stream = iter_load(path, on_truncation=policy)
    records = stream.lazy_records() if lazy else stream
    return stream.header, materialized(records)


def _whole(trace):
    return trace.header, trace.records


def _replayed(data, path):
    """``replay(path)`` must refuse what the readers refuse.  A file it
    gets through is answered with the readers' outcome; a content error
    past the format (a delta gap, a task two sites own) ends the replay
    early, so the readers alone decide those files."""
    try:
        replay(path)
    except (DeltaSequenceError, ValueError) as exc:
        if isinstance(exc, TraceFormatError):
            raise
        return _whole(loads(data))
    try:
        return _whole(loads(data))
    except TraceFormatError:
        return "replayed a file the readers refuse"


DOORS = {
    "loads": lambda data, path: _whole(loads(data)),
    "load_trace": lambda data, path: _whole(load_trace(path)),
    "iter_load": lambda data, path: _streamed(path, "error", lazy=False),
    "lazy_records": lambda data, path: _streamed(path, "error", lazy=True),
    "iter_load/ignore": lambda data, path: _streamed(path, "ignore", lazy=False),
    "lazy_records/ignore": lambda data, path: _streamed(path, "ignore", lazy=True),
    "replay(path)": _replayed,
}
TOLERANT = ("iter_load/ignore", "lazy_records/ignore")


def verdicts(data: bytes, path):
    """``data`` through every door: ``(strict, tolerant)`` outcomes,
    each :data:`REFUSED` or ``(header, records)``, after asserting that
    the doors of one policy agree and the policies differ only where
    ``ignore`` is allowed to."""
    path.write_bytes(data)
    seen = {}
    for name, door in DOORS.items():
        try:
            seen[name] = door(data, path)
        except TraceFormatError:
            seen[name] = REFUSED
    strict = seen["loads"]
    tolerant = seen[TOLERANT[0]]
    for name, outcome in seen.items():
        expected = tolerant if name in TOLERANT else strict
        assert outcome == expected, f"{name} disagrees with its policy's doors"
    if strict != REFUSED:
        assert tolerant == strict, "ignore changed the answer for a good file"
    return strict, tolerant


def assert_refused(data: bytes, path) -> None:
    assert verdicts(data, path) == (REFUSED, REFUSED)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "hostile.trace"


# ---------------------------------------------------------------------------
# the traces the rows are cut from
# ---------------------------------------------------------------------------
def status(phaser="p", phase=1):
    return waiting_on(phaser, phase, **{phaser: phase})


def single_site_trace() -> Trace:
    return Trace(
        TraceHeader(meta={"scenario": "pair"}),
        (
            ev.register(0, "t1", "p", 0),
            ev.advance(1, "t1", "p", 1),
            ev.block(2, "t1", status()),
            ev.block(
                3,
                "t2",
                BlockedStatus(
                    waits=frozenset({Event("q", 2), Event("p", 1)}),
                    registered={"q": 1, "p": 1},
                ),
            ),
            ev.unblock(4, "t1"),
        ),
    )


def blob(phaser="p"):
    return {"waits": [[phaser, 1]], "registered": {phaser: 1}}


def delta_trace() -> Trace:
    def payload(seq, kind, **ops):
        return {
            "v": 3, "stream": "S", "seq": seq, "kind": kind,
            "set": ops.get("set", {}), "clear": ops.get("clear", []),
        }

    traced = payload(2, "delta", set={"b": blob("q"), "c": blob()}, clear=["a"])
    traced["trace"] = {"span": "deadbeef"}
    return Trace(
        TraceHeader(meta={}),
        (
            ev.publish_delta(0, "s1", payload(1, "snapshot", set={"z": blob()})),
            ev.publish_delta(1, "s0", payload(1, "snapshot", set={"a": blob()})),
            ev.publish_delta(2, "s0", traced),
        ),
    )


SWEPT = {"single-site": single_site_trace, "deltas": delta_trace}


def binary_header(meta_json: bytes, version: int = 4) -> bytes:
    out = bytearray(BINARY_MAGIC + bytes([version]))
    codec_mod._write_varint(out, len(meta_json))
    return bytes(out) + meta_json


def varint(value: int) -> bytes:
    out = bytearray()
    codec_mod._write_varint(out, value)
    return bytes(out)


# ---------------------------------------------------------------------------
# the table — file-shaped rows every door (and the CLI) must refuse
# ---------------------------------------------------------------------------
def _named(marker: bytes) -> bytes:
    """A binary trace naming a task, phaser, site and stream, with the
    first byte of the name ``marker`` flipped to 0xFF."""
    trace = Trace(
        TraceHeader(meta={}),
        (
            ev.block(0, "TASKNAME", status("PHASERNAME")),
            ev.publish_delta(1, "SITENAME", {
                "v": 3, "stream": "STREAMNAME", "seq": 1, "kind": "snapshot",
                "set": {}, "clear": [],
            }),
        ),
    )
    data = dumps(trace, "binary")
    assert data.count(marker) >= 1
    return data.replace(marker, b"\xff" + marker[1:])


def _oversized_frame_mid_file() -> bytes:
    """8 MiB of 8 KiB frames; the second one's length reads 2**40."""
    codec = CODECS["binary"]
    frames = [
        codec.encode_record(ev.advance(seq, "t" * 8400, "p", 1))
        for seq in range(1001)
    ]
    length, start = codec_mod._read_varint(memoryview(frames[1]), 0)
    assert start + length == len(frames[1])
    frames[1] = varint(1 << 40) + frames[1][start:]
    data = codec.encode_header(TraceHeader(meta={})) + b"".join(frames)
    assert len(data) > 8 * 1024 * 1024
    return data


def _register_frame(tail: bytes = b"") -> bytes:
    """A binary trace of a block frame, then a ``register`` frame with
    ``tail`` appended after its phase, inside the frame."""
    codec = CODECS["binary"]
    frame = codec.encode_record(ev.register(1, "t1", "PHASERNAME", 0))
    length, start = codec_mod._read_varint(memoryview(frame), 0)
    body = frame[start:] + tail
    return (
        codec.encode_header(TraceHeader(meta={}))
        + codec.encode_record(ev.block(0, "t1", status()))
        + varint(len(body)) + body
    )


def _waiting(event_json: bytes) -> bytes:
    """The JSONL pair with ``t2``'s wait on ``q@2`` rewritten."""
    data = dumps(single_site_trace(), "jsonl")
    assert data.count(b'["q",2]') == 1
    return data.replace(b'["q",2]', event_json)


def _registered(phases_json: bytes) -> bytes:
    """The JSONL pair with ``t1``'s registrations rewritten."""
    return _jsonl_with(
        single_site_trace(), b'"registered":{"p":1}', b'"registered":' + phases_json
    )


def _jsonl_with(trace: Trace, old: bytes, new: bytes) -> bytes:
    """``trace`` as JSONL, with every ``old`` rewritten to ``new``."""
    data = dumps(trace, "jsonl")
    assert old in data
    return data.replace(old, new)


def _binary_blocks(section: bytes, times: int = 1) -> bytes:
    """A binary trace of ``times`` block frames whose status section —
    the rest of the frame after the task id — is ``section``."""
    out = bytearray(CODECS["binary"].encode_header(TraceHeader(meta={})))
    for seq in range(times):
        body = bytearray([codec_mod._KIND_TAGS[ev.RecordKind.BLOCK]])
        codec_mod._write_varint(body, seq)
        codec_mod._write_str(body, f"t{seq}")
        out += varint(len(body) + len(section)) + body + section
    return bytes(out)


#: No waits, no registrations.
NO_WAITS_SECTION = b"\x00\x00"


def _no_waits_delta() -> bytes:
    """A binary publish-delta snapshot whose one blob waits on nothing."""
    blob = {"waits": [], "registered": {}}
    return dumps(Trace(TraceHeader(meta={}), (ev.publish_delta(0, "s0", {
        "v": 3, "stream": "S", "seq": 1, "kind": "snapshot",
        "set": {"a": blob}, "clear": [],
    }),)), "binary")


def _snapshot_trace(**members) -> Trace:
    """One ``publish_delta`` snapshot of one blob, ``members`` overriding
    the payload's."""
    return Trace(TraceHeader(meta={}), (ev.publish_delta(0, "s0", {
        "v": 3, "stream": "S", "seq": 1, "kind": "snapshot",
        "set": {"a": blob()}, "clear": [], **members,
    }),))


def _binary_version(version: int) -> bytes:
    """The binary pair with its header's version byte set to ``version``."""
    data = bytearray(dumps(single_site_trace(), "binary"))
    data[len(BINARY_MAGIC)] = version
    return bytes(data)


def _binary_tag_5() -> bytes:
    """A binary trace of one frame under tag 5, laid out as the retired
    whole-bucket ``publish`` record was: site, then (task, status)
    pairs."""
    codec = CODECS["binary"]
    body = bytearray([5, 0])  # tag, seq
    codec_mod._write_str(body, "s0")
    codec_mod._write_varint(body, 1)
    codec_mod._write_str(body, "a")
    codec_mod._write_status(body, blob())
    return codec.encode_header(TraceHeader(meta={})) + varint(len(body)) + body


REFUSED_FILES = {
    "binary meta: 0xFF": lambda: dumps(
        Trace(TraceHeader(meta={"k": "value"}), ()), "binary"
    ).replace(b"value", b"va\xffue"),
    "binary meta: length 2**62": lambda: (
        BINARY_MAGIC + b"\x02" + b"\x80" * 8 + b"\x40"
    ),
    "binary frame: length 2**40 mid-file": _oversized_frame_mid_file,
    "binary task name: 0xFF": lambda: _named(b"TASKNAME"),
    "binary phaser name: 0xFF": lambda: _named(b"PHASERNAME"),
    "binary register phaser: 0xFF, the only bad byte": lambda: (
        _register_frame().replace(b"PHASERNAME", b"\xffHASERNAME")
    ),
    "binary register: a byte after the phase": lambda: _register_frame(b"\x00"),
    "binary site name: 0xFF": lambda: _named(b"SITENAME"),
    "binary stream name: 0xFF": lambda: _named(b"STREAMNAME"),
    "binary meta: a list": lambda: binary_header(b"[1,2]"),
    "binary meta: a number": lambda: binary_header(b"7"),
    "binary meta: null": lambda: binary_header(b"null"),
    "binary version: unsupported": lambda: binary_header(b"{}", version=99),
    "jsonl meta: a list": lambda: JSONL_HEADER.replace(b"{}", b"[1,2]"),
    "jsonl meta: a number": lambda: JSONL_HEADER.replace(b"{}", b"7"),
    "jsonl meta: null": lambda: JSONL_HEADER.replace(b"{}", b"null"),
    "jsonl version: a string": lambda: JSONL_HEADER.replace(b":4,", b':"x",'),
    "jsonl version: null": lambda: JSONL_HEADER.replace(b":4,", b":null,"),
    "jsonl version: true": lambda: JSONL_HEADER.replace(b":4,", b":true,"),
    "jsonl version: 1": lambda: _jsonl_with(
        single_site_trace(), b'"version":4}', b'"version":1}'
    ),
    "jsonl version: 2": lambda: _jsonl_with(
        single_site_trace(), b'"version":4}', b'"version":2}'
    ),
    "jsonl version: 3": lambda: _jsonl_with(
        single_site_trace(), b'"version":4}', b'"version":3}'
    ),
    "binary version: 1": lambda: _binary_version(1),
    "binary version: 2": lambda: _binary_version(2),
    "binary version: 3": lambda: _binary_version(3),
    "binary record: tag 5": _binary_tag_5,
    "jsonl record: kind publish": lambda: JSONL_HEADER + (
        b'{"kind":"publish","payload":{"a":{"generation":0,'
        b'"registered":{"p":1},"waits":[["p",1]]}},"seq":0,"site":"s0"}\n'
    ),
    "jsonl delta v: 1": lambda: dumps(_snapshot_trace(v=1), "jsonl"),
    "binary delta v: 1": lambda: dumps(_snapshot_trace(v=1), "binary"),
    "jsonl delta v: 2": lambda: dumps(_snapshot_trace(v=2), "jsonl"),
    "binary delta v: 2": lambda: dumps(_snapshot_trace(v=2), "binary"),
    "jsonl delta: an empty restore member": lambda: dumps(
        _snapshot_trace(restore={}), "jsonl"
    ),
    "jsonl delta: a restore member with ops": lambda: dumps(
        _snapshot_trace(kind="delta", seq=2, set={}, restore={"a": blob()}),
        "jsonl",
    ),
    "jsonl delta: an unknown member": lambda: dumps(
        _snapshot_trace(extra=1), "jsonl"
    ),
    "jsonl delta blob: a generation member": lambda: dumps(
        _snapshot_trace(set={"a": {**blob(), "generation": 0}}), "jsonl"
    ),
    "jsonl delta seq: true": lambda: _jsonl_with(
        _snapshot_trace(), b'"seq":1,"set"', b'"seq":true,"set"'
    ),
    "jsonl delta seq: a fraction": lambda: _jsonl_with(
        _snapshot_trace(), b'"seq":1,"set"', b'"seq":1.5,"set"'
    ),
    "jsonl delta stream: a list": lambda: _jsonl_with(
        _snapshot_trace(), b'"stream":"S"', b'"stream":["S"]'
    ),
    "jsonl line: 0xFF": lambda: (
        dumps(single_site_trace(), "jsonl").replace(b'"t2"', b'"t\xff"')
    ),
    "jsonl line: broken, but terminated — not a crash tail": lambda: (
        dumps(single_site_trace(), "jsonl") + b'{"seq": \n'
    ),
    "jsonl line: nested past the recursion limit": lambda: (
        JSONL_HEADER + b"[" * 100_000 + b"\n"
    ),
    "jsonl line: an int literal past the digit limit": lambda: (
        JSONL_HEADER + b'{"seq":' + b"9" * 5000 + b',"kind":"unblock","task":"t"}\n'
    ),
    "jsonl wait: a numeric phaser": lambda: _waiting(b"[7,2]"),
    "jsonl wait: a fractional phase": lambda: _waiting(b'["q",2.5]'),
    "jsonl wait: true for a phase": lambda: _waiting(b'["q",true]'),
    "binary block: no waits": lambda: _binary_blocks(NO_WAITS_SECTION),
    "binary block: one malformed section twice": lambda: _binary_blocks(
        NO_WAITS_SECTION, times=2
    ),
    "binary block: a section with a trailing byte": lambda: _binary_blocks(
        b"\x01\x01p\x01\x00\x00"
    ),
    "jsonl block: no waits": lambda: _jsonl_with(
        single_site_trace(), b'"waits":[["p",1]]', b'"waits":[]'
    ),
    "binary publish-delta blob: no waits": _no_waits_delta,
    "jsonl task: a list": lambda: _jsonl_with(
        single_site_trace(), b'"task":"t1"', b'"task":["x"]'
    ),
    "jsonl task: a number": lambda: _jsonl_with(
        single_site_trace(), b'"task":"t1"', b'"task":7'
    ),
    "jsonl phaser: a list": lambda: _jsonl_with(
        single_site_trace(), b'"phaser":"p"', b'"phaser":["p"]'
    ),
    "jsonl publish site: a list": lambda: _jsonl_with(
        delta_trace(), b'"site":"s0"', b'"site":["s"]'
    ),
    "jsonl seq: true": lambda: _jsonl_with(
        single_site_trace(), b'"seq":1,', b'"seq":true,'
    ),
    "jsonl seq: a fraction": lambda: _jsonl_with(
        single_site_trace(), b'"seq":2,', b'"seq":2.7,'
    ),
    "jsonl seq: a numeric string": lambda: _jsonl_with(
        single_site_trace(), b'"seq":3,', b'"seq":"3",'
    ),
    "jsonl phase: a fraction": lambda: _jsonl_with(
        single_site_trace(), b'"phase":1,', b'"phase":1.5,'
    ),
    "jsonl phase: true": lambda: _jsonl_with(
        single_site_trace(), b'"phase":1,', b'"phase":true,'
    ),
    "jsonl registered phase: a string": lambda: _registered(b'{"p":"1"}'),
    "jsonl registered phase: a fraction": lambda: _registered(b'{"p":1.9}'),
    "jsonl registered phase: true": lambda: _registered(b'{"p":true}'),
    "jsonl registered phase: negative": lambda: _registered(b'{"p":-3}'),
    "jsonl status: a generation member": lambda: _registered(
        b'{"p":1},"generation":0'
    ),
    "jsonl status: an unknown member": lambda: _registered(b'{"p":1},"x":[]'),
}


@pytest.fixture(scope="module")
def refused_files():
    """Each hostile file built once (the 8 MiB one is not free)."""
    return {name: build() for name, build in REFUSED_FILES.items()}


class TestRefusedFiles:
    @pytest.mark.parametrize("row", REFUSED_FILES)
    def test_every_door_refuses_with_the_typed_error(
        self, refused_files, path, row
    ):
        assert_refused(refused_files[row], path)

    @pytest.mark.parametrize("row", REFUSED_FILES)
    def test_cli_reports_a_malformed_trace(
        self, refused_files, path, capsys, row
    ):
        path.write_bytes(refused_files[row])
        for argv in (
            ["replay", str(path)],
            ["explain", str(path)],
            ["predict", str(path)],
            ["stats", str(path)],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert "error: malformed trace:" in err, argv
            assert "Traceback" not in err, argv

    @pytest.mark.parametrize(
        "row", ["binary meta: length 2**62", "binary frame: length 2**40 mid-file"]
    )
    @pytest.mark.parametrize("door", DOORS)
    def test_an_absurd_length_is_refused_without_being_waited_for(
        self, refused_files, path, row, door
    ):
        """Within one chunk of the bad varint, under either policy: no
        allocation sized by the length, no buffering of the file."""
        data = refused_files[row]
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError, match="exceeds"):
                DOORS[door](data, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak} bytes"
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(TraceFormatError):
                DOORS[door](data, path)
            best = min(best, time.perf_counter() - start)
        assert best < 0.1


# ---------------------------------------------------------------------------
# rows that are not refusals, or not files
# ---------------------------------------------------------------------------
CORPUS = pathlib.Path(__file__).parent / "corpus"


class TestGoodFiles:
    @pytest.mark.parametrize(
        "member",
        sorted(p.name for p in CORPUS.iterdir() if p.suffix in (".jsonl", ".trace")),
    )
    def test_every_corpus_member_reads_the_same_through_every_door(
        self, path, member
    ):
        strict, _ = verdicts((CORPUS / member).read_bytes(), path)
        assert strict != REFUSED and strict[1]

    @pytest.mark.parametrize("trace_ctx", [None, {"span": "x"}])
    def test_a_delta_without_v_reads_back_alike_through_both_codecs(
        self, path, trace_ctx
    ):
        """A payload that omits ``v`` is the current protocol version to
        both writers, so each codec writes a file every door reads back,
        to the same record."""
        payload = {"stream": "s", "seq": 1, "kind": "snapshot",
                   "set": {}, "clear": []}
        if trace_ctx is not None:
            payload["trace"] = trace_ctx
        trace = Trace(TraceHeader(), (ev.publish_delta(0, "A", payload),))
        read = [verdicts(dumps(trace, codec), path)[0] for codec in CODEC_NAMES]
        assert read[0] == read[1] != REFUSED
        (rec,) = read[0][1]
        assert rec.payload == {"v": 3, **payload}


def _report_obj(**members) -> dict:
    """A well-formed SG report's wire object, then ``members``."""
    return {
        "tasks": ["a", "b"], "events": [["p", 1], ["q", 1]],
        "cycle": [["e", "p", 1], ["e", "q", 1], ["e", "p", 1]],
        "model": "sg", "edge_count": 2, "avoided": False,
        **members,
    }


def _origin(**members) -> dict:
    """A well-formed publish origin's wire object, then ``members``."""
    return {"ordinal": 7, "kind": "publish_delta", "site": "A",
            "stream": "S", "seq": 2, **members}


def _provenance(edge=("p@1", "q@1", "a", "b", 0, 0), **origin) -> dict:
    """A report's wire object with one provenance ``edge`` over two
    origins, the first ``_origin(**origin)``."""
    return _report_obj(provenance={
        "edges": [list(edge)],
        "origins": [_origin(**origin), _origin(ordinal=8, seq=3)],
    })


#: Wire objects a service or a client is handed after framing: no file
#: door sees them, the ``*_from_obj`` door must refuse them itself.
REFUSED_OBJECTS = {
    "status wait: a numeric phaser": (ev.status_from_obj, blob(1)),
    "status wait: a list for a phaser": (
        ev.status_from_obj, {**blob(), "waits": [[["x"], 1]]}),
    "report event: a list for a phaser": (
        ev.report_from_obj, _report_obj(events=[[["x"], 1]])),
    "report event: a fractional phase": (
        ev.report_from_obj, _report_obj(events=[["p", 1.5]])),
    "report event: true for a phase": (
        ev.report_from_obj, _report_obj(events=[["p", True]])),
    "report event: a negative phase": (
        ev.report_from_obj, _report_obj(events=[["p", -1]])),
    "report cycle: a list for an event's phaser": (
        ev.report_from_obj, _report_obj(cycle=[["e", ["x"], 1]])),
    "report cycle: a numeric string for a phase": (
        ev.report_from_obj, _report_obj(cycle=[["e", "p", "1"]])),
    "report cycle: a list for a task": (
        ev.report_from_obj, _report_obj(cycle=[["t", ["q"]]])),
    "report cycle: an event with a fourth member": (
        ev.report_from_obj, _report_obj(cycle=[["e", "p", 1, 0]])),
    "status: a generation member": (
        ev.status_from_obj, {**blob(), "generation": 0}),
    "status: an unknown member": (ev.status_from_obj, {**blob(), "x": 1}),
    "report tasks: a number": (ev.report_from_obj, _report_obj(tasks=[5])),
    "report tasks: a string": (ev.report_from_obj, _report_obj(tasks="ab")),
    "report edge_count: a numeric string": (
        ev.report_from_obj, _report_obj(edge_count="3")),
    "report edge_count: negative": (
        ev.report_from_obj, _report_obj(edge_count=-1)),
    "report edge_count: true": (ev.report_from_obj, _report_obj(edge_count=True)),
    "report avoided: a string": (ev.report_from_obj, _report_obj(avoided="false")),
    "report avoided: 0": (ev.report_from_obj, _report_obj(avoided=0)),
    "report detection_lag: a fraction": (
        ev.report_from_obj, _report_obj(detection_lag=2.9)),
    "report detection_lag: negative": (
        ev.report_from_obj, _report_obj(detection_lag=-1)),
    "report detected_at: true": (ev.report_from_obj, _report_obj(detected_at=True)),
    "report detected_at: a numeric string": (
        ev.report_from_obj, _report_obj(detected_at="4")),
    "report provenance edge: a number for a vertex": (
        ev.report_from_obj, _provenance(edge=(5, "q@1", "a", "b", 0, 0))),
    "report provenance edge: a number for a task": (
        ev.report_from_obj, _provenance(edge=("p@1", "q@1", "a", 6, 0, 0))),
    "report provenance edge: true for an origin index": (
        ev.report_from_obj, _provenance(edge=("p@1", "q@1", "a", "b", 0, True))),
    "report origin ordinal: a numeric string": (
        ev.report_from_obj, _provenance(ordinal="7")),
    "report origin ordinal: negative": (
        ev.report_from_obj, _provenance(ordinal=-7)),
    "report origin kind: a number": (ev.report_from_obj, _provenance(kind=3)),
    "report origin site: a number": (ev.report_from_obj, _provenance(site=5)),
    "report origin stream: a list": (ev.report_from_obj, _provenance(stream=["S"])),
    "report origin seq: a fraction": (ev.report_from_obj, _provenance(seq=2.5)),
    "report origin seq: true": (ev.report_from_obj, _provenance(seq=True)),
    "origin seq: a numeric string": (ev.origin_from_obj, _origin(seq="2")),
}


class TestRefusedObjects:
    def test_the_rows_are_cut_from_objects_the_doors_accept(self):
        from repro.core.report import RecordOrigin

        assert ev.status_from_obj(blob()) == status()
        assert ev.delta_payload_from_obj(_snapshot_trace().records[0].payload)
        report = ev.report_from_obj(_report_obj())
        assert report.cycle_key == {Event("p", 1), Event("q", 1)}
        origin = RecordOrigin(7, "publish_delta", "A", "S", 2)
        assert ev.origin_from_obj(_origin()) == origin
        (edge,) = ev.report_from_obj(
            {**_provenance(), "detection_lag": 0, "detected_at": 7}
        ).provenance
        assert edge.source_origin is edge.target_origin == origin
        minimal = ev.report_from_obj(_report_obj(provenance={
            "edges": [["a", "b", "a", "b", 0, 0]],
            "origins": [{"ordinal": 0, "kind": "block"}],
        }))
        assert minimal.provenance[0].source_origin == RecordOrigin(0)

    @pytest.mark.parametrize("row", REFUSED_OBJECTS)
    def test_the_door_refuses_with_the_typed_error(self, row):
        door, obj = REFUSED_OBJECTS[row]
        with pytest.raises(TraceFormatError):
            door(obj)

    def test_a_numeric_phaser_cannot_hide_a_deadlock(self):
        """``registered`` keys are JSON strings, so a numeric awaited
        phaser let through would never meet its registration and the
        crossed pair would check clean."""
        from repro.core.checker import DeadlockChecker

        def crossed(p, q):
            return (
                {"waits": [[p, 1]], "registered": {str(p): 1, str(q): 0}},
                {"waits": [[q, 1]], "registered": {str(q): 1, str(p): 0}},
            )

        checker = DeadlockChecker()
        for task, obj in zip("ab", crossed("1", "2")):
            checker.set_blocked(task, ev.status_from_obj(obj))
        assert checker.check().tasks == ("a", "b")
        for obj in crossed(1, 2):
            with pytest.raises(TraceFormatError):
                ev.status_from_obj(obj)


class TestLineSeparators:
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085", "\x1c"])
    def test_unicode_line_separators_inside_a_string_do_not_split_it(
        self, path, char
    ):
        """Raw (unescaped) in a JSON string these are valid JSON — all but
        the control character — and ``str.splitlines`` splits on every
        one of them; the reader splits on ``b"\\n"`` only."""
        trace = Trace(
            TraceHeader(meta={}), (ev.unblock(0, f"a{char}b"), ev.unblock(1, "t"))
        )
        escaped = dumps(trace, "jsonl")
        raw = escaped.replace(b"\\u%04x" % ord(char), char.encode("utf-8"))
        assert raw != escaped
        strict, _ = verdicts(raw, path)
        if char < " ":
            assert strict == REFUSED  # a raw control character is not JSON
        else:
            assert strict == (trace.header, trace.records)


class TestCeiling:
    @pytest.fixture
    def small_ceiling(self, monkeypatch):
        monkeypatch.setattr(codec_mod, "MAX_FRAME_BYTES", 256)
        return 256

    def test_a_line_one_byte_past_the_ceiling_is_refused(self, small_ceiling, path):
        """The line is valid JSON with no newline, so only the ceiling
        can refuse it — under ``ignore`` too: past the ceiling an
        unterminated line is not a crash tail."""
        line = b'{"seq":0,"kind":"unblock","task":"t"%s}'
        fits = line % (b" " * (small_ceiling - len(line) + 2))
        assert len(fits) == small_ceiling
        strict, _ = verdicts(JSONL_HEADER + fits, path)
        assert strict[1] == (ev.unblock(0, "t"),)
        assert_refused(JSONL_HEADER + fits[:-1] + b" }", path)

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_no_writer_emits_what_no_reader_accepts(self, small_ceiling, codec):
        coder = CODECS[codec]
        coder.encode_record(ev.unblock(0, "t" * 100))
        with pytest.raises(TraceFormatError, match="exceeds"):
            coder.encode_record(ev.unblock(0, "t" * 300))
        coder.encode_header(TraceHeader(meta={"k": "v" * 100}))
        with pytest.raises(TraceFormatError, match="exceeds"):
            coder.encode_header(TraceHeader(meta={"k": "v" * 300}))
        with pytest.raises(TraceFormatError, match="exceeds"):
            dumps(Trace(TraceHeader(meta={}), (ev.unblock(0, "t" * 300),)), codec)


# ---------------------------------------------------------------------------
# exhaustive sweeps over small traces
# ---------------------------------------------------------------------------
def whole_records_by_offset(trace: Trace, codec: str):
    """File offsets at which ``trace``'s encoding holds a whole header
    and a whole number of records, mapped to that number."""
    coder = CODECS[codec]
    offset = len(coder.encode_header(trace.header))
    ends = {offset: 0}
    for count, rec in enumerate(trace.records, 1):
        offset += len(coder.encode_record(rec))
        ends[offset] = count
    return ends


@pytest.mark.parametrize("codec", CODEC_NAMES)
@pytest.mark.parametrize("name", SWEPT)
class TestSweeps:
    def test_every_truncation_offset(self, path, name, codec):
        """``error``: a complete file or a refusal.  ``ignore``: the
        records in front of the cut — and a cut header is still fatal."""
        trace = SWEPT[name]()
        data = dumps(trace, codec)
        ends = whole_records_by_offset(trace, codec)
        assert max(ends) == len(data)
        for cut in range(len(data) + 1):
            strict, tolerant = verdicts(data[:cut], path)
            # A JSONL line that lost only its newline is still whole.
            at = cut + 1 if codec == "jsonl" and cut + 1 in ends else cut
            if at < min(ends):
                assert (strict, tolerant) == (REFUSED, REFUSED), cut
                continue
            count = max(n for end, n in ends.items() if end <= at)
            prefix = (trace.header, trace.records[:count])
            assert strict == (prefix if at in ends else REFUSED), cut
            assert tolerant == prefix, cut

    def test_every_single_byte_substitution(self, path, name, codec):
        """Whatever a flipped byte does, it does it at every door."""
        data = dumps(SWEPT[name](), codec)
        refused = 0
        for at, byte in itertools.product(range(len(data)), (0x00, 0xFF, 0x80)):
            if data[at] == byte:
                continue
            mutant = data[:at] + bytes([byte]) + data[at + 1:]
            strict, _ = verdicts(mutant, path)
            refused += strict == REFUSED
        assert refused  # the sweep did reach the error paths
