"""Streaming I/O tests: iter/eager equivalence, O(frame) memory,
spill-to-disk recording and crash-truncation tolerance."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.events import BlockedStatus, Event
from repro.trace.codec import load_trace, save_trace
from repro.trace.corpus import ChurnSpec, ScenarioSpec, build_trace
from repro.trace.events import TraceFormatError
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay
from repro.trace.stream import StreamingRecorder, iter_load

CODEC_EXT = {"jsonl": ".jsonl", "binary": ".trace"}

#: Specs covering every record kind and both scenario families.
SPECS = (
    ScenarioSpec(cycle_len=3, fan_out=2, sites=1, rounds=2),
    ScenarioSpec(cycle_len=2, fan_out=1, sites=2, rounds=1, deadlock=False),
    ChurnSpec(pool=5, window=3, rounds=3, sites=2),
)


def write(trace, tmp_path, codec, name="t"):
    return save_trace(trace, tmp_path / f"{name}{CODEC_EXT[codec]}", codec=codec)


class TestIterLoadEquivalence:
    @pytest.mark.parametrize("codec", sorted(CODEC_EXT))
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_streamed_records_equal_eager_load(self, tmp_path, codec, spec):
        trace = build_trace(spec)
        path = write(trace, tmp_path, codec)
        streamed = iter_load(path)
        assert streamed.header == load_trace(path).header
        assert tuple(streamed) == load_trace(path).records == trace.records

    @pytest.mark.parametrize("codec", sorted(CODEC_EXT))
    def test_streamed_trace_is_reiterable(self, tmp_path, codec):
        path = write(build_trace(SPECS[0]), tmp_path, codec)
        streamed = iter_load(path)
        assert tuple(streamed) == tuple(streamed)

    @pytest.mark.parametrize("codec", sorted(CODEC_EXT))
    def test_streaming_replay_equals_eager_replay(self, tmp_path, codec):
        """A path is always streamed; the records loaded whole replay
        the same."""
        trace = build_trace(SPECS[0])
        path = write(trace, tmp_path, codec)
        eager = replay(load_trace(path))
        streamed = replay(path)
        assert streamed.reports == eager.reports
        assert streamed.records_processed == eager.records_processed
        assert streamed.checks_run == eager.checks_run

    def test_bad_policy_rejected(self, tmp_path):
        path = write(build_trace(SPECS[0]), tmp_path, "jsonl")
        with pytest.raises(ValueError):
            iter_load(path, on_truncation="maybe")


class TestStreamingMemory:
    @pytest.mark.parametrize("codec", sorted(CODEC_EXT))
    def test_iteration_is_o_frame(self, tmp_path, codec):
        """Streaming a many-frame trace must peak far below eager load
        (the whole point: replay memory independent of trace length)."""
        trace = build_trace(ScenarioSpec(cycle_len=4, fan_out=4, rounds=450))
        assert len(trace) > 20_000
        path = write(trace, tmp_path, codec)
        del trace

        tracemalloc.start()
        eager = load_trace(path)
        _, eager_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del eager

        tracemalloc.start()
        count = sum(1 for _ in iter_load(path))
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert count > 20_000
        assert stream_peak * 5 < eager_peak, (
            f"streaming peak {stream_peak} not an improvement over "
            f"eager peak {eager_peak}"
        )


class TestStreamingRecorder:
    def status(self, phaser="p", phase=1):
        return BlockedStatus(
            waits=frozenset({Event(phaser, phase)}), registered={phaser: phase}
        )

    @pytest.mark.parametrize("codec", sorted(CODEC_EXT))
    def test_round_trip_equals_buffered_recorder(self, tmp_path, codec):
        """StreamingRecorder produces the same trace TraceRecorder does."""
        buffered = TraceRecorder(meta={"scenario": "pair"})
        path = tmp_path / f"s{CODEC_EXT[codec]}"
        with StreamingRecorder(path, meta={"scenario": "pair"}) as spilled:
            for rec in (buffered, spilled):
                rec.record_register("t1", "p", 0)
                rec.record_advance("t1", "p", 1)
                rec.record_block("t1", self.status())
                rec.record_publish_delta("site0", {
                    "v": 3, "stream": "S", "seq": 1, "kind": "snapshot",
                    "set": {"t2": {"waits": [["q", 1]], "registered": {"q": 0}}},
                    "clear": [],
                })
                rec.record_unblock("t1")
            assert len(spilled) == 5
        assert load_trace(path).records == buffered.trace().records
        assert load_trace(path).header.meta == {"scenario": "pair"}

    def test_records_are_on_disk_not_in_memory(self, tmp_path):
        path = tmp_path / "spill.trace"
        with StreamingRecorder(path) as rec:
            header_size = path.stat().st_size
            for i in range(100):
                rec.record_advance(f"t{i}", "p", 1)
            rec.flush()
            assert path.stat().st_size > header_size
            assert rec._records == []  # nothing buffered

    def test_closed_recorder_rejects_records(self, tmp_path):
        rec = StreamingRecorder(tmp_path / "x.trace")
        rec.close()
        with pytest.raises(RuntimeError):
            rec.record_unblock("t1")

    def test_clear_truncates_to_header(self, tmp_path):
        path = tmp_path / "x.jsonl"
        with StreamingRecorder(path) as rec:
            rec.record_advance("t1", "p", 1)
            rec.clear()
            rec.record_advance("t2", "p", 1)
        records = load_trace(path).records
        assert [r.task for r in records] == ["t2"]
        assert records[0].seq == 1  # the seq counter keeps going

    def test_save_to_other_path_reencodes(self, tmp_path):
        rec = StreamingRecorder(tmp_path / "a.trace")
        rec.record_advance("t1", "p", 1)
        out = rec.save(tmp_path / "b.jsonl")
        assert load_trace(out).records == load_trace(tmp_path / "a.trace").records


class TestTruncationTolerance:
    @pytest.mark.parametrize("codec", sorted(CODEC_EXT))
    @pytest.mark.parametrize("cut", [3, 17])
    def test_partial_tail_ignored_not_fatal(self, tmp_path, codec, cut):
        """A crashed recorder leaves a partial trailing frame; tolerant
        streaming yields every complete record before it."""
        trace = build_trace(SPECS[0])
        path = write(trace, tmp_path, codec)
        clipped = tmp_path / f"clipped{CODEC_EXT[codec]}"
        clipped.write_bytes(path.read_bytes()[:-cut])

        with pytest.raises(TraceFormatError):
            list(iter_load(clipped))  # strict by default

        records = tuple(iter_load(clipped, on_truncation="ignore"))
        assert 0 < len(records) < len(trace)
        assert records == trace.records[: len(records)]

    def test_mid_file_corruption_is_always_fatal_jsonl(self, tmp_path):
        """Tolerance covers crash tails only: damage *before* the last
        record still raises, even under on_truncation='ignore'."""
        trace = build_trace(SPECS[0])
        path = write(trace, tmp_path, "jsonl")
        data = bytearray(path.read_bytes())
        # Chop out a chunk spanning line boundaries mid-file.
        pivot = len(data) // 2
        del data[pivot : pivot + 40]
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            list(iter_load(bad, on_truncation="ignore"))

    def test_mid_file_corruption_is_always_fatal_binary(self, tmp_path):
        """A *complete* frame with a bad body (here: an unknown kind
        tag) is corruption, not truncation — fatal under any policy."""
        from repro.trace.codec import CODECS
        from repro.trace import events as ev

        codec = CODECS["binary"]
        good = ev.advance(0, "t1", "p", 1)
        bad_frame = bytes([1, 99])  # length prefix 1, unknown tag 99
        path = tmp_path / "bad.trace"
        with open(path, "wb") as fp:
            fp.write(codec.encode_header(ev.TraceHeader(meta={})))
            fp.write(codec.encode_record(good))
            fp.write(bad_frame)
            fp.write(codec.encode_record(ev.advance(1, "t1", "p", 2)))
        with pytest.raises(TraceFormatError):
            list(iter_load(path, on_truncation="ignore"))

    def test_truncated_header_always_fatal(self, tmp_path):
        path = write(build_trace(SPECS[0]), tmp_path, "binary")
        stub = tmp_path / "stub.trace"
        stub.write_bytes(path.read_bytes()[:9])
        with pytest.raises(TraceFormatError):
            iter_load(stub, on_truncation="ignore")

    def test_replay_of_crashed_recording(self, tmp_path):
        """End to end: spill, 'crash' (truncate), tolerantly replay."""
        path = tmp_path / "run.trace"
        with StreamingRecorder(path, meta={"scenario": "crash"}) as rec:
            for i in range(50):
                rec.record_advance(f"t{i}", "p", 1)
        clipped = tmp_path / "crashed.trace"
        clipped.write_bytes(path.read_bytes()[:-5])
        outcome = replay(iter_load(clipped, on_truncation="ignore"))
        assert outcome.records_processed == 49


class TestStreamEdgeCases:
    @pytest.mark.parametrize("policy", ["error", "ignore"])
    def test_zero_length_file_is_fatal(self, tmp_path, policy):
        """An empty file has no header: fatal under every policy."""
        empty = tmp_path / "empty.trace"
        empty.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            iter_load(empty, on_truncation=policy)

    @pytest.mark.parametrize("policy", ["error", "ignore"])
    def test_cut_exactly_on_frame_boundary_is_clean_eof(self, tmp_path, policy):
        """A file ending exactly after a complete frame is not truncated
        at all — every record before the cut streams out, even in strict
        mode."""
        from repro.trace.codec import CODECS

        trace = build_trace(SPECS[0])
        codec = CODECS["binary"]
        header = codec.encode_header(trace.header)
        frames = [codec.encode_record(r) for r in trace.records]
        keep = len(frames) // 2
        cut = tmp_path / "boundary.trace"
        cut.write_bytes(header + b"".join(frames[:keep]))
        records = tuple(iter_load(cut, on_truncation=policy))
        assert records == trace.records[:keep]

    @pytest.mark.parametrize("policy", ["error", "ignore"])
    def test_cut_exactly_on_line_boundary_is_clean_eof(self, tmp_path, policy):
        trace = build_trace(SPECS[0])
        path = write(trace, tmp_path, "jsonl")
        lines = path.read_bytes().splitlines(keepends=True)
        keep = len(lines) // 2  # header + keep-1 records
        cut = tmp_path / "boundary.jsonl"
        cut.write_bytes(b"".join(lines[:keep]))
        records = tuple(iter_load(cut, on_truncation=policy))
        assert records == trace.records[: keep - 1]

    def test_ignore_mode_with_midfile_corruption_still_fatal(self, tmp_path):
        """on_truncation='ignore' tolerates the crash *tail* only: a
        corrupt frame followed by good frames — even with a genuinely
        truncated tail after them — must still raise."""
        from repro.trace import events as ev
        from repro.trace.codec import CODECS

        codec = CODECS["binary"]
        good = [codec.encode_record(ev.advance(i, "t1", "p", i + 1)) for i in range(3)]
        corrupt = bytes([1, 99])  # complete frame, unknown kind tag
        partial_tail = good[2][: len(good[2]) - 2]  # crash mid-frame
        path = tmp_path / "bad.trace"
        path.write_bytes(
            codec.encode_header(ev.TraceHeader(meta={}))
            + good[0]
            + corrupt
            + good[1]
            + partial_tail
        )
        with pytest.raises(TraceFormatError):
            list(iter_load(path, on_truncation="ignore"))

    def test_ignore_mode_jsonl_corruption_before_valid_records_fatal(self, tmp_path):
        trace = build_trace(SPECS[0])
        path = write(trace, tmp_path, "jsonl")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"seq": "not-a-record"}\n'
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines))
        with pytest.raises(TraceFormatError):
            list(iter_load(bad, on_truncation="ignore"))

    def test_ignore_mode_jsonl_corrupt_line_before_blank_tail_fatal(self, tmp_path):
        """A corrupt *terminated* line followed only by blank lines is
        corruption, not a crash tail (a crash leaves an unterminated
        partial line, never content after a newline)."""
        trace = build_trace(SPECS[0])
        path = write(trace, tmp_path, "jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(path.read_bytes() + b'{"broken": \n\n')
        with pytest.raises(TraceFormatError):
            list(iter_load(bad, on_truncation="ignore"))
