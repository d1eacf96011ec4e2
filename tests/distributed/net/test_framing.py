"""The wire format: length-prefixed JSON frames, one parser for both ends.

:class:`FrameDecoder` is fed bytes however a transport happens to cut
them, so its contract is stated over chunkings: the same byte stream
yields the same messages in the same order whatever the split; clean
EOF between frames leaves nothing pending, EOF *inside* a frame (header
or payload) does; a hostile length prefix fails as soon as its four
bytes are in; and the bytes themselves are exactly what
``json.dumps(obj, separators=(",", ":"))`` behind a 4-byte length always
were.
"""

from __future__ import annotations

import json
import random
import struct

import pytest

from repro.core.events import waiting_on
from repro.distributed.delta import DeltaPublisher, encode_bucket
from repro.distributed.net import framing
from repro.distributed.net.framing import (
    ACK,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    decode_payload,
    encode_frame,
)
from repro.distributed.net.service import CheckerServiceCore


class TestEncode:
    def test_roundtrip(self):
        obj = {"op": "append_delta", "site": "s0", "n": [1, 2, 3]}
        wire = encode_frame(obj)
        (length,) = struct.unpack(">I", wire[:4])
        assert length == len(wire) - 4
        assert decode_payload(wire[4:]) == obj

    def test_compact_json(self):
        assert b" " not in encode_frame({"a": 1, "b": [2, 3]})

    def test_oversized_object_refused_on_send(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 16)
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * 64})

    def test_non_json_payload_refused(self):
        with pytest.raises(FrameError):
            decode_payload(b"\xff\xfenot json")


def storm_requests(appends: int = 40):
    """Append requests shaped like the benchmark storm's: one site
    re-publishing a small bucket with one status moved each time."""
    publisher = DeltaPublisher("s0")
    phases = [1] * 8
    requests = []
    for index in range(appends):
        phases[index % 8] += 1
        obj = publisher.prepare(encode_bucket({
            f"s0-t{k}": waiting_on(f"s0-e{k}", phase, **{f"s0-e{k}": phase})
            for k, phase in enumerate(phases)
        }))
        publisher.commit(obj)
        requests.append({"op": "append_delta", "tenant": "storm",
                         "site": "s0", "obj": obj})
    return requests


def knot_report_obj(ring: int = 16) -> dict:
    """A cross-site ring's report as the service answers it."""
    core = CheckerServiceCore()
    for site, parity in (("A", 0), ("B", 1)):
        bucket = encode_bucket({
            f"t{k}": waiting_on(f"p{k}", 1, **{f"p{k}": 1,
                                              f"p{(k + 1) % ring}": 0})
            for k in range(ring) if k % 2 == parity
        })
        obj = DeltaPublisher(site).prepare(bucket)
        assert core.handle({"op": "append_delta", "site": site,
                            "obj": obj}) is ACK
    report = core.handle({"op": "check"})["value"]
    assert report is not None and len(report["tasks"]) == ring
    return report


class TestWireBytesDidNotMove:
    @pytest.mark.parametrize("obj", [
        *storm_requests(), knot_report_obj(), ACK,
        {"ok": True, "value": {"é": "☃", "n": [1.5, None, True]}},
    ], ids=lambda obj: str(obj.get("op", "answer")))
    def test_frame_is_length_prefixed_compact_json_dumps(self, obj):
        payload = json.dumps(obj, separators=(",", ":")).encode()
        assert encode_frame(obj) == struct.pack(">I", len(payload)) + payload

    def test_the_ack_is_interned_both_ways(self):
        payload = b'{"ok":true,"value":null}'
        assert encode_frame(ACK) is encode_frame(ACK)  # not re-encoded
        assert encode_frame(dict(ACK)) == encode_frame(ACK)  # same bytes
        for form in (payload, bytearray(payload)):
            assert decode_payload(form) is ACK
            assert decode_payload(form) == json.loads(payload)
        # Anything else — near misses included — is parsed as ever.
        for obj in ({"ok": True, "value": 0}, {"value": None, "ok": True},
                    {"ok": False, "error": "value", "message": "m"}):
            got = decode_payload(encode_frame(obj)[4:])
            assert got == obj and got is not ACK


def feed_all(chunks):
    """Feed ``chunks`` to a fresh decoder -> (messages, bytes pending)."""
    decoder = FrameDecoder()
    messages = []
    for chunk in chunks:
        messages += decoder.feed(chunk)
    return messages, decoder.pending


ONE = encode_frame({"seq": 1})
TWO = encode_frame({"seq": 2})
BIG = encode_frame({"big": "x" * 100})


class TestFrameDecoder:
    # (what the peer sent before it closed or paused, messages out,
    # whether a frame is left incomplete) — the old blocking-socket and
    # asyncio-stream suites' cases, now one table.
    @pytest.mark.parametrize("chunks, messages, truncated", [
        pytest.param([ONE, TWO], [{"seq": 1}, {"seq": 2}], False,
                     id="round-trip"),
        pytest.param([ONE + TWO], [{"seq": 1}, {"seq": 2}], False,
                     id="pipelined-in-one-chunk"),
        pytest.param([], [], False, id="clean-eof-at-once"),
        pytest.param([ONE], [{"seq": 1}], False,
                     id="clean-eof-between-frames"),
        pytest.param([b"\x00\x00"], [], True, id="eof-mid-header"),
        pytest.param([ONE, b"\x00\x00"], [{"seq": 1}], True,
                     id="eof-mid-second-header"),
        pytest.param([struct.pack(">I", 32)], [], True,
                     id="eof-between-header-and-payload"),
        pytest.param([BIG[:-10]], [], True, id="eof-mid-payload"),
        pytest.param([ONE + BIG[:-5]], [{"seq": 1}], True,
                     id="eof-mid-second-payload"),
        pytest.param([encode_frame({})[:4], b"{}"], [{}], False,
                     id="header-then-payload"),
        pytest.param([struct.pack(">I", 0)], None, False,
                     id="empty-payload-is-not-json"),
    ])
    def test_eof_taxonomy(self, chunks, messages, truncated):
        if messages is None:
            with pytest.raises(FrameError):
                feed_all(chunks)
            return
        got, pending = feed_all(chunks)
        assert got == messages
        assert bool(pending) is truncated

    def test_hostile_length_prefix_fails_with_only_the_header_fed(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="ceiling"):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_hostile_length_prefix_fails_when_the_header_is_dripped(self):
        decoder = FrameDecoder()
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        for byte in header[:3]:
            assert decoder.feed(bytes([byte])) == []
        with pytest.raises(FrameError, match="ceiling"):
            decoder.feed(header[3:])

    def test_ceiling_itself_is_a_legal_announcement(self):
        decoder = FrameDecoder()
        assert decoder.feed(struct.pack(">I", MAX_FRAME_BYTES)) == []
        assert decoder.pending == 4

    def test_garbage_payload_raises(self):
        payload = b"definitely not json"
        with pytest.raises(FrameError, match="not JSON"):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)


# A 1-byte payload, a storm-sized (~250-byte) request, a 40 KB answer and the
# ack, with small frames on both sides of the big one.
STREAM_OBJS = [
    7,
    storm_requests(3)[-1],
    ACK,
    {"ok": True, "value": ["y" * 40, {"blob": "x" * 40_000}]},
    7,
    storm_requests(2)[-1],
]
STREAM = b"".join(encode_frame(obj) for obj in STREAM_OBJS)
STREAM_PAYLOADS = [encode_frame(obj)[4:] for obj in STREAM_OBJS]


class TestEveryChunking:
    def test_stream_shape(self):
        sizes = sorted({len(frame) + 4 for frame in STREAM_PAYLOADS})
        assert sizes[0] == 5 and sizes[-1] > 40_000
        assert any(200 <= size <= 300 for size in sizes)

    def test_every_split_position(self, monkeypatch):
        # Payloads compared as bytes: parsing a 40 KB JSON document at
        # 40 000 cuts would spend the suite's budget in ``json.loads``.
        monkeypatch.setattr(framing, "decode_payload", bytes)
        for cut in range(len(STREAM) + 1):
            got, pending = feed_all([STREAM[:cut], STREAM[cut:]])
            assert got == STREAM_PAYLOADS and pending == 0, cut
        monkeypatch.undo()
        assert [decode_payload(p) for p in STREAM_PAYLOADS] == STREAM_OBJS

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_random_chunkings(self, seed):
        rng = random.Random(seed)
        # Drips, header-sized bites, and gulps of several frames.
        limit = rng.choice([1, 3, 5, 64, 300, 5_000, 70_000])
        chunks, at = [], 0
        while at < len(STREAM):
            step = rng.randint(1, limit)
            chunks.append(STREAM[at:at + step])
            at += step
        got, pending = feed_all(chunks)
        assert got == STREAM_OBJS and pending == 0

    def test_a_message_comes_out_with_its_last_byte(self):
        wire = ONE + ONE
        decoder = FrameDecoder()
        out = [len(decoder.feed(wire[i:i + 1])) for i in range(len(wire))]
        expected = [0] * len(wire)
        expected[len(ONE) - 1] = expected[-1] = 1
        assert out == expected
