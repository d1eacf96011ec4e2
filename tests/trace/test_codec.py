"""Codec tests: JSONL ↔ binary round-trips and malformed-input rejection."""

from __future__ import annotations

import pytest

from repro.core.events import BlockedStatus, Event
from repro.trace import events as ev
from repro.trace.codec import (
    BINARY_MAGIC,
    codec_for,
    dumps,
    load_trace,
    loads,
    save_trace,
)
from repro.trace.corpus import ScenarioSpec, scenario_trace
from repro.trace.events import (
    Trace,
    TraceFormatError,
    TraceHeader,
    TRACE_VERSION,
)


def sample_trace(sites: int = 1) -> Trace:
    """A trace exercising every record kind (publishes need sites=2)."""
    return scenario_trace(
        ScenarioSpec(cycle_len=3, fan_out=2, sites=sites, rounds=2, deadlock=True)
    )


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["jsonl", "binary"])
    @pytest.mark.parametrize("sites", [1, 2])
    def test_in_memory_round_trip(self, codec, sites):
        trace = sample_trace(sites)
        restored = loads(dumps(trace, codec))
        assert restored.header == trace.header
        assert restored.records == trace.records

    def test_jsonl_and_binary_agree(self):
        """The two codecs decode to the very same record stream."""
        trace = sample_trace(2)
        via_jsonl = loads(dumps(trace, "jsonl"))
        via_binary = loads(dumps(trace, "binary"))
        assert via_jsonl.records == via_binary.records
        assert via_jsonl.header == via_binary.header

    def test_binary_is_smaller(self):
        trace = sample_trace(2)
        assert len(dumps(trace, "binary")) < len(dumps(trace, "jsonl"))

    @pytest.mark.parametrize("name,codec", [("t.jsonl", "jsonl"), ("t.trace", "binary"), ("t.bin", "binary")])
    def test_file_round_trip_by_extension(self, tmp_path, name, codec):
        trace = sample_trace()
        path = save_trace(trace, tmp_path / name)
        assert codec_for(path).name == codec
        restored = load_trace(path)
        assert restored.records == trace.records

    def test_all_record_kinds_survive(self):
        trace = sample_trace(2)
        kinds = {r.kind for r in loads(dumps(trace, "binary"))}
        assert ev.RecordKind.PUBLISH_DELTA in kinds
        local = loads(dumps(sample_trace(1), "binary"))
        assert {r.kind for r in local} >= {
            ev.RecordKind.BLOCK,
            ev.RecordKind.UNBLOCK,
            ev.RecordKind.REGISTER,
            ev.RecordKind.ADVANCE,
        }

    @pytest.mark.parametrize("codec", ["jsonl", "binary"])
    @pytest.mark.parametrize("kind", ["delta", "snapshot"])
    def test_publish_delta_round_trip(self, codec, kind):
        blobs = {"t1": {"waits": [["p", 1]], "registered": {"p": 1}}}
        if kind == "delta":
            blobs["t2"] = {"waits": [["q", 2]], "registered": {}}
        payload = {
            "v": 3,
            "stream": "st1",
            "seq": 4,
            "kind": kind,
            "set": blobs,
            "clear": [] if kind == "snapshot" else ["t3"],
        }
        trace = Trace(
            header=TraceHeader(meta={}),
            records=(ev.publish_delta(0, "siteA", payload),),
        )
        restored = loads(dumps(trace, codec))
        assert restored.records == trace.records
        assert restored.records[0].payload == payload

    def test_status_fidelity(self):
        status = BlockedStatus(
            waits=frozenset({Event("p", 3), Event("q", 1)}),
            registered={"p": 3, "q": 0, "r": 7},
        )
        trace = Trace(
            header=TraceHeader(meta={"k": "v"}),
            records=(ev.block(0, "t1", status),),
        )
        for codec in ("jsonl", "binary"):
            restored = loads(dumps(trace, codec)).records[0].status
            assert restored == status


class TestMalformedInput:
    def test_empty_file(self):
        with pytest.raises(TraceFormatError):
            loads(b"")

    def test_bad_jsonl_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            loads(b'{"version": 1}\n')

    def test_unparseable_json_line(self):
        good = dumps(sample_trace(), "jsonl")
        with pytest.raises(TraceFormatError):
            loads(good + b"{not json}\n")

    def test_unsupported_version(self):
        with pytest.raises(TraceFormatError, match="version"):
            loads(b'{"magic":"armus-trace","version":99,"meta":{}}\n')

    def test_record_missing_fields(self):
        header = b'{"magic":"armus-trace","version":%d,"meta":{}}\n' % TRACE_VERSION
        with pytest.raises(TraceFormatError):
            loads(header + b'{"seq":0,"kind":"block"}\n')  # no task/status
        with pytest.raises(TraceFormatError):
            loads(header + b'{"seq":0,"kind":"nonsense","task":"t"}\n')

    def test_truncated_binary(self):
        data = dumps(sample_trace(), "binary")
        with pytest.raises(TraceFormatError):
            loads(data[: len(data) - 3])

    def test_binary_bad_magic(self):
        data = dumps(sample_trace(), "binary")
        # Valid JSONL magic is absent too, so the JSONL path rejects it.
        with pytest.raises(TraceFormatError):
            loads(b"XXXXXXXX" + data[8:])

    def test_binary_unknown_tag(self):
        trace = Trace(header=TraceHeader(), records=(ev.unblock(0, "t"),))
        data = bytearray(dumps(trace, "binary"))
        # The record frame is [len][tag][seq][strlen]['t']; the tag byte
        # sits 4 bytes from the end.
        data[-4] = 0x7F
        with pytest.raises(TraceFormatError, match="tag"):
            loads(bytes(data))

    def test_binary_magic_prefix_only(self):
        with pytest.raises(TraceFormatError):
            loads(BINARY_MAGIC)

    def test_negative_phase_rejected(self):
        header = b'{"magic":"armus-trace","version":%d,"meta":{}}\n' % TRACE_VERSION
        with pytest.raises(TraceFormatError):
            loads(header + b'{"seq":0,"kind":"advance","task":"t","phaser":"p","phase":-1}\n')

    def test_unknown_codec_name(self):
        with pytest.raises(TraceFormatError, match="codec"):
            codec_for("x.jsonl", codec="msgpack")


class TestDeltaPayloadValidation:
    def header(self):
        return b'{"magic":"armus-trace","version":%d,"meta":{}}\n' % TRACE_VERSION

    @pytest.mark.parametrize("version", [0, -1, 2, 99])
    def test_out_of_range_protocol_version_rejected_at_load(self, version):
        line = (
            b'{"seq":0,"kind":"publish_delta","site":"s","payload":'
            b'{"v":%d,"stream":"x","seq":1,"kind":"snapshot",'
            b'"set":{},"clear":[]}}\n' % version
        )
        with pytest.raises(TraceFormatError, match="version"):
            loads(self.header() + line)

    def test_snapshot_with_delta_ops_rejected_at_load(self):
        line = (
            b'{"seq":0,"kind":"publish_delta","site":"s","payload":'
            b'{"v":3,"stream":"x","seq":1,"kind":"snapshot",'
            b'"set":{},"clear":["t"]}}\n'
        )
        with pytest.raises(TraceFormatError, match="snapshot"):
            loads(self.header() + line)


class TestTraceContextOnWire:
    """The optional delta ``trace`` field round-trips in both codecs."""

    def payload(self, trace=None):
        obj = {
            "v": 3,
            "stream": "st1",
            "seq": 4,
            "kind": "snapshot",
            "set": {"t1": {"waits": [["p", 1]], "registered": {"p": 1}}},
            "clear": [],
        }
        if trace is not None:
            obj["trace"] = trace
        return obj

    @pytest.mark.parametrize("codec", ["jsonl", "binary"])
    def test_trace_field_round_trips(self, codec):
        payload = self.payload(trace={"span": "deadbeefdeadbeef"})
        trace = Trace(
            header=TraceHeader(meta={}),
            records=(ev.publish_delta(0, "siteA", payload),),
        )
        restored = loads(dumps(trace, codec))
        assert restored.records == trace.records
        assert restored.records[0].payload["trace"] == {
            "span": "deadbeefdeadbeef"
        }

    def test_jsonl_and_binary_agree_with_trace_field(self):
        payload = self.payload(trace={"span": "deadbeefdeadbeef"})
        trace = Trace(
            header=TraceHeader(meta={}),
            records=(ev.publish_delta(0, "siteA", payload),),
        )
        assert loads(dumps(trace, "jsonl")).records == loads(
            dumps(trace, "binary")
        ).records

    @pytest.mark.parametrize(
        "bad",
        [
            "not-a-mapping",
            {"span": ["list", "value"]},
            {"span": {"nested": 1}},
        ],
    )
    def test_malformed_trace_context_rejected(self, bad):
        with pytest.raises(TraceFormatError, match="trace context"):
            ev.delta_payload_from_obj(self.payload(trace=bad))
