"""Backend equivalence: the same scenario driven through the thread
backend and the aio backend must produce replay-identical traces and
identical deadlock reports (golden-diff, both codecs).

Identifiers (task ids, resource ids) come from process-global counters,
so raw recordings of the two runs differ textually; equality is over
:func:`~repro.trace.normalize.canonical_trace` forms — behavioural
identity made byte-comparable.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.aio.scenarios import crossed_pair
from repro.core.report import DeadlockAvoidedError, DeadlockError
from repro.runtime.phaser import Phaser
from repro.runtime.verifier import ArmusRuntime, VerificationMode
from repro.trace.codec import dumps
from repro.trace.normalize import canonical_trace
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay

CODECS = ("jsonl", "binary")


def thread_crossed(runtime):
    """The crossed two-phaser knot on the thread backend, blocks
    serialised exactly like :func:`repro.aio.scenarios.crossed_pair`."""
    ph1 = Phaser(runtime, register_self=False, name="p")
    ph2 = Phaser(runtime, register_self=False, name="q")
    gate = threading.Event()

    def first():
        gate.wait(10)
        ph1.arrive_and_await_advance()

    def second():
        gate.wait(10)
        deadline = time.monotonic() + 10
        while runtime.checker.dependency.blocked_count() < 1:
            if runtime.reports or time.monotonic() > deadline:
                break
            time.sleep(0.001)
        ph2.arrive_and_await_advance()

    t1 = runtime.spawn(first, register=[ph1, ph2], name="t1")
    t2 = runtime.spawn(second, register=[ph1, ph2], name="t2")
    gate.set()
    return [t1, t2]


def record_thread_run(mode):
    recorder = TraceRecorder(meta={"scenario": "crossed"})
    runtime = ArmusRuntime(
        mode=VerificationMode(mode), interval_s=0.02, recorder=recorder,
    ).start()
    try:
        tasks = thread_crossed(runtime)
        for t in tasks:
            try:
                t.join(10)
            except DeadlockError:
                pass
    finally:
        runtime.stop()
    return recorder.trace(), runtime.reports


def record_aio_run(mode):
    recorder = TraceRecorder(meta={"scenario": "crossed"})
    runtime = ArmusRuntime(
        mode=VerificationMode(mode), interval_s=0.02, recorder=recorder,
    ).start()

    async def main():
        tasks = crossed_pair(runtime)
        for t in tasks:
            try:
                await t.wait(10)
            except DeadlockError:
                pass

    try:
        asyncio.run(main())
    finally:
        runtime.stop()
    return recorder.trace(), runtime.reports


class TestAvoidanceGoldenDiff:
    """Avoidance runs of the crossed knot are fully deterministic, so
    the *whole* normalised trace must match byte-for-byte."""

    @pytest.fixture(scope="class")
    def runs(self):
        thread_trace, thread_reports = record_thread_run("avoidance")
        aio_trace, aio_reports = record_aio_run("avoidance")
        return thread_trace, thread_reports, aio_trace, aio_reports

    @pytest.mark.parametrize("codec", CODECS)
    def test_canonical_traces_byte_identical(self, runs, codec):
        thread_trace, _, aio_trace, _ = runs
        assert dumps(canonical_trace(thread_trace), codec) == dumps(
            canonical_trace(aio_trace), codec
        )

    def test_live_reports_agree(self, runs):
        _, thread_reports, _, aio_reports = runs
        assert len(thread_reports) == len(aio_reports) == 1
        assert thread_reports[0].avoided and aio_reports[0].avoided

    def test_replay_reports_identical(self, runs):
        thread_trace, _, aio_trace, _ = runs
        out = [
            [r.describe() for r in replay(canonical_trace(t), mode="avoidance").reports]
            for t in (thread_trace, aio_trace)
        ]
        assert out[0] == out[1]
        assert len(out[0]) == 1


class TestDetectionEquivalence:
    """Detection cancellation makes the unblock tail racy, but the
    blocks (and hence the replayed reports) are serialised: replays of
    both recordings must find the same deadlock."""

    def test_replay_reports_identical(self):
        thread_trace, _ = record_thread_run("detection")
        aio_trace, _ = record_aio_run("detection")
        results = [
            replay(canonical_trace(t), mode="detection")
            for t in (thread_trace, aio_trace)
        ]
        assert all(r.deadlocked for r in results)
        assert [r.describe() for r in results[0].reports] == [
            r.describe() for r in results[1].reports
        ]

    def test_block_prefixes_byte_identical(self):
        """Up to the knot-closing block the two recordings are
        record-for-record identical under both codecs."""
        from repro.trace.events import RecordKind, Trace

        thread_trace, _ = record_thread_run("detection")
        aio_trace, _ = record_aio_run("detection")

        def knot_prefix(trace):
            canonical = canonical_trace(trace)
            records = []
            blocks = 0
            for rec in canonical.records:
                records.append(rec)
                if rec.kind is RecordKind.BLOCK:
                    blocks += 1
                    if blocks == 2:
                        break
            return Trace(header=canonical.header, records=tuple(records))

        for codec in CODECS:
            assert dumps(knot_prefix(thread_trace), codec) == dumps(
                knot_prefix(aio_trace), codec
            )
