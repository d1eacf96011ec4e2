"""Recorder tests: capturing live runs from every layer's hooks."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.events import waiting_on
from repro.distributed.store import InMemoryStore, ReplicatedStore
from repro.pl import programs
from repro.pl.interpreter import Interpreter
from repro.runtime.phaser import Phaser
from repro.trace.codec import load_trace
from repro.trace.events import RecordKind
from repro.trace.recorder import TraceRecorder


def run_crossed_deadlock(runtime, poll: bool = True):
    """Drive a deterministic two-task crossed-phaser deadlock.

    Blocks are serialised (t2 waits until t1's status is published), so
    the recorded stream — and hence the replayed analysis — is exactly
    reproducible.  Returns the two tasks.
    """
    ph1 = Phaser(runtime, register_self=False, name="p")
    ph2 = Phaser(runtime, register_self=False, name="q")
    gate = threading.Event()

    def await_blocked(count):
        deadline = time.monotonic() + 10
        while runtime.checker.dependency.blocked_count() < count:
            if runtime.reports:
                return
            assert time.monotonic() < deadline, "tasks never blocked"
            time.sleep(0.002)

    def first():
        gate.wait(10)
        ph1.arrive_and_await_advance()

    def second():
        gate.wait(10)
        await_blocked(1)
        ph2.arrive_and_await_advance()

    t1 = runtime.spawn(first, register=[ph1, ph2], name="t1")
    t2 = runtime.spawn(second, register=[ph1, ph2], name="t2")
    gate.set()
    await_blocked(2)
    if poll and not runtime.reports:
        runtime.monitor.poll_once()
    return t1, t2


def join_quietly(*tasks):
    for task in tasks:
        try:
            task.join(10)
        except Exception:
            pass


class TestRuntimeCapture:
    def test_captures_deadlocking_run(self, runtime_factory):
        """The satellite requirement: a known-deadlocking runtime run is
        captured with its registers, advances, and both blocks."""
        recorder = TraceRecorder(meta={"scenario": "crossed"})
        rt = runtime_factory("detection", recorder=recorder)
        rt.monitor.stop()  # manual polling keeps the run deterministic
        t1, t2 = run_crossed_deadlock(rt)
        join_quietly(t1, t2)
        assert rt.reports, "the deadlock was not detected live"

        trace = recorder.trace()
        kinds = [r.kind for r in trace]
        assert kinds.count(RecordKind.BLOCK) == 2
        # Each task registered with both phasers.
        assert kinds.count(RecordKind.REGISTER) == 4
        # Each task arrived at its own phaser.
        assert kinds.count(RecordKind.ADVANCE) == 2
        blocks = [r for r in trace if r.kind is RecordKind.BLOCK]
        assert {r.task for r in blocks} == {t1.task_id, t2.task_id}
        # The recorded statuses carry the crossed waits.
        waits = {next(iter(r.status.waits)).phaser for r in blocks}
        assert len(waits) == 2

    def test_seq_is_monotonic(self, runtime_factory):
        recorder = TraceRecorder()
        rt = runtime_factory("detection", recorder=recorder)
        rt.monitor.stop()
        t1, t2 = run_crossed_deadlock(rt)
        join_quietly(t1, t2)
        seqs = [r.seq for r in recorder.trace()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_off_mode_records_too(self, runtime_factory):
        """Recording works with verification OFF — the record-now,
        verify-offline workflow."""
        recorder = TraceRecorder()
        rt = runtime_factory("off", recorder=recorder)
        ph = Phaser(rt, register_self=False, name="bar")
        gate = threading.Event()

        def worker():
            gate.wait(10)
            ph.arrive_and_await_advance()

        tasks = [rt.spawn(worker, register=[ph], name=f"w{i}") for i in range(3)]
        gate.set()
        for t in tasks:
            t.join(10)
        kinds = {r.kind for r in recorder.trace()}
        assert RecordKind.BLOCK in kinds
        assert RecordKind.UNBLOCK in kinds
        assert rt.stats.checks == 0  # no verification happened

    def test_save_and_reload(self, tmp_path, runtime_factory):
        recorder = TraceRecorder(meta={"scenario": "crossed"})
        rt = runtime_factory("detection", recorder=recorder)
        rt.monitor.stop()
        t1, t2 = run_crossed_deadlock(rt)
        join_quietly(t1, t2)
        path = recorder.save(tmp_path / "run.trace")
        restored = load_trace(path)
        assert restored.records == recorder.trace().records
        assert restored.header.meta["scenario"] == "crossed"


class TestStoreCapture:
    SNAPSHOT = {
        "v": 3, "stream": "S", "seq": 1, "kind": "snapshot",
        "set": {"t1": {"waits": [["p", 1]], "registered": {"p": 1}}},
        "clear": [],
    }

    def test_append_records_publish_delta(self):
        recorder = TraceRecorder()
        store = InMemoryStore(recorder=recorder)
        store.append_delta("siteA", self.SNAPSHOT)
        trace = recorder.trace()
        assert len(trace) == 1
        rec = trace.records[0]
        assert rec.kind is RecordKind.PUBLISH_DELTA
        assert rec.site == "siteA"
        assert rec.payload == self.SNAPSHOT

    def test_replicated_store_records_once(self):
        recorder = TraceRecorder()
        replicas = [InMemoryStore(name=f"r{i}") for i in range(3)]
        store = ReplicatedStore(replicas, recorder=recorder)
        store.append_delta("siteA", self.SNAPSHOT)
        assert len(recorder) == 1  # one logical write, one record

    def test_failed_append_not_recorded(self):
        recorder = TraceRecorder()
        store = InMemoryStore(recorder=recorder)
        store.set_available(False)
        with pytest.raises(Exception):
            store.append_delta("siteA", self.SNAPSHOT)
        assert len(recorder) == 0


class TestInterpreterCapture:
    def test_pl_deadlock_recorded_and_replayable(self):
        """A deadlocking PL program records block events whose replay
        reproduces the interpreter's own report."""
        from repro.trace.replay import replay

        recorder = TraceRecorder(meta={"program": "running_example"})
        checker = DeadlockChecker()
        interp = Interpreter(seed=7, checker=checker, recorder=recorder)
        result = interp.run(programs.initial(programs.running_example(I=3, J=1)))
        assert result.reports, "interpreter did not catch the PL deadlock"
        outcome = replay(recorder.trace(), mode="detection")
        assert outcome.deadlocked
        # The same report: every field is a function of the blocked
        # set, whatever order the interpreter published it in.
        assert outcome.reports[0].without_provenance() == result.reports[0]

    def test_reused_interpreter_starts_a_fresh_diff(self):
        """run() resets the blocked-set diff: a second run on the same
        interpreter re-records its blocks instead of suppressing them."""
        from repro.trace.replay import replay

        recorder = TraceRecorder()
        interp = Interpreter(seed=7, checker=DeadlockChecker(), recorder=recorder)
        program = programs.initial(programs.running_example(I=3, J=1))
        assert interp.run(program).reports
        recorder.clear()
        assert interp.run(program).reports
        second = recorder.trace()
        assert any(r.kind is RecordKind.BLOCK for r in second)
        assert replay(second, mode="detection").deadlocked

    def test_pl_clean_program_records_no_deadlock(self):
        from repro.trace.replay import replay

        recorder = TraceRecorder()
        checker = DeadlockChecker()
        interp = Interpreter(seed=7, checker=checker, recorder=recorder)
        result = interp.run(programs.initial(programs.spmd_rounds(n=3, rounds=2)))
        assert not result.reports
        assert not replay(recorder.trace(), mode="detection").deadlocked


class TestRecorderBasics:
    def test_clear_keeps_seq_monotonic(self):
        recorder = TraceRecorder()
        recorder.record_unblock("t1")
        recorder.clear()
        rec = recorder.record_unblock("t2")
        assert rec.seq == 1  # counter survives the clear

    def test_ids_coerced_to_str(self):
        recorder = TraceRecorder()
        rec = recorder.record_block(42, waiting_on("p", 1, p=1))
        assert rec.task == "42"
