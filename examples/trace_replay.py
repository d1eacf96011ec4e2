"""Record a deadlocking run, replay it offline, explore it under other
graph models — the trace subsystem's record/replay walkthrough.

The live run is the paper's crossed-barrier deadlock: two tasks, two
phasers, each task arrived at its own phaser and waiting for the other.
A :class:`~repro.trace.recorder.TraceRecorder` attached to the runtime
captures every register/advance/block/unblock as the run happens; the
trace is saved in both codecs, replayed deterministically (reproducing
the live report), and finally re-analysed under a *different* graph
model — an offline ablation no live run could offer, because the
execution is long gone.

Run::

    python examples/trace_replay.py
"""

import tempfile
import threading
import time

from repro.runtime import Phaser
from repro.runtime.verifier import ArmusRuntime, VerificationMode
from repro.core.selection import GraphModel
from repro.trace import (
    FAMILIES,
    TraceRecorder,
    load_trace,
    replay,
    replay_corpus,
    write_corpus,
)


def crossed_deadlock(runtime: ArmusRuntime) -> None:
    """Two tasks block on each other's phaser, in a deterministic order."""
    ph1 = Phaser(runtime, register_self=False, name="p")
    ph2 = Phaser(runtime, register_self=False, name="q")
    gate = threading.Event()

    def wait_for_blocked(count: int) -> None:
        while runtime.checker.dependency.blocked_count() < count:
            if runtime.reports:
                return
            time.sleep(0.002)

    def first() -> None:
        gate.wait(10)
        ph1.arrive_and_await_advance()

    def second() -> None:
        gate.wait(10)
        wait_for_blocked(1)  # block strictly after the first task
        ph2.arrive_and_await_advance()

    t1 = runtime.spawn(first, register=[ph1, ph2], name="t1")
    t2 = runtime.spawn(second, register=[ph1, ph2], name="t2")
    gate.set()
    wait_for_blocked(2)
    runtime.monitor.poll_once()  # one manual detection pass
    for task in (t1, t2):
        try:
            task.join(10)
        except Exception:
            pass  # the detection report cancels both tasks


def main() -> None:
    # 1. Record the live run: one flag on the runtime.
    recorder = TraceRecorder(meta={"example": "trace_replay"})
    runtime = ArmusRuntime(
        mode=VerificationMode.DETECTION, recorder=recorder
    )
    crossed_deadlock(runtime)
    live = runtime.reports[0]
    print("--- live detection report ---")
    print(live.describe())

    # 2. Persist the trace in both codecs.
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = recorder.save(f"{tmp}/run.jsonl")
        binary = recorder.save(f"{tmp}/run.trace")
        print(f"\nrecorded {len(recorder)} events "
              f"({jsonl.stat().st_size} B jsonl, {binary.stat().st_size} B binary)")

        # 3. Offline replay reproduces the live report, deterministically.
        outcome = replay(load_trace(binary), mode="detection")
        print(f"replayed at {outcome.events_per_sec:,.0f} events/sec")
        print("replay == live:", outcome.reports == [live])

        # 4. Offline ablation: re-analyse the same run under fixed WFG.
        wfg = replay(load_trace(jsonl), mode="detection", model=GraphModel.WFG)
        print("\n--- same run, re-analysed as a wait-for graph ---")
        print(wfg.reports[0].describe())

        # 5. The same file replayed by path is streamed: one frame in
        # memory at a time — how a million-event recording replays in
        # flat RAM.
        streamed = replay(binary)
        print("\nstreamed replay == eager replay:",
              streamed.reports == outcome.reports)

        # 6. Scale out: a generated corpus fanned over worker
        # processes, reports merged deterministically.
        grid = dict(cycle_len=(2, 3), fan_out=(1, 2), deadlock=(True, False))
        write_corpus(f"{tmp}/corpus", FAMILIES["cycle"].specs(grid))
        result = replay_corpus(f"{tmp}/corpus", processes=2)
        print(f"corpus: {len(result.entries)} file(s) over "
              f"{result.processes} processes, "
              f"{result.records_processed} records, "
              f"{len(result.reports)} report(s), "
              f"{len(result.mismatches)} verdict mismatch(es)")


if __name__ == "__main__":
    main()
