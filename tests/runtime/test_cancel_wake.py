"""Cancellation is a wake: a condemned task raises at once, not at the
next poll of its wait.

``Task.cancel`` notifies the condition the task's verified wait sleeps
on, so with the detection monitor idle a single cancel from another
thread ends the wait after a bounded number of predicate evaluations.
With the monitor running, a crossed pair aborts within one monitor
period of its second block, plus a bounded term, on either backend.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time

import pytest

from repro.aio.scenarios import crossed_pair
from repro.core.report import DeadlockDetectedError, DeadlockError, DeadlockReport
from repro.core.selection import GraphModel
from repro.runtime.phaser import Phaser

#: Detection period of the latency pin.
INTERVAL_S = 0.2
#: What a detected deadlock may take beyond one period to abort: the
#: check itself and the wakes of the condemned tasks.
ABORT_BOUND_S = 0.5


def report_on(task) -> DeadlockReport:
    return DeadlockReport(
        tasks=(task.task_id,), events=(), cycle=(task.task_id,) * 2,
        model_used=GraphModel.WFG, edge_count=0,
    )


def test_one_cancel_wakes_a_parked_thread(runtime_factory, predicate_evaluations):
    runtime = runtime_factory("detection", interval_s=3600.0)
    # The calling task holds the phaser and never arrives.
    ph = Phaser(runtime, register_self=True, name="held")
    task = runtime.spawn(ph.arrive_and_await_advance, register=[ph], name="condemned")
    deadline = time.monotonic() + 10
    while runtime.checker.dependency.blocked_count() < 1:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    time.sleep(0.3)  # parked: a polling wait would re-check ~100 times here
    canceller = threading.Thread(target=task.cancel, args=(report_on(task),))
    canceller.start()
    canceller.join(5)
    with pytest.raises(DeadlockDetectedError):
        task.join(5)
    # The fast path and the check after publishing; the cancel's wake
    # raises before the predicate runs again.
    assert len(predicate_evaluations) <= 2
    assert runtime.checker.dependency.blocked_count() == 0
    ph.deregister()


def test_a_cancel_racing_the_wait_is_never_lost(runtime_factory):
    """Cancels land at every point of a wait's entry — before the
    block, between publication and the check, while parked — with
    thread switches forced between almost every bytecode.  A cancel
    that fell between the check and the sleep would hang the join."""
    runtime = runtime_factory("detection", interval_s=3600.0)
    ph = Phaser(runtime, register_self=True, name="held")
    rng = random.Random(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            task = runtime.spawn(ph.arrive_and_await_advance, register=[ph])
            time.sleep(rng.random() * 0.002)
            task.cancel(report_on(task))
            with pytest.raises(DeadlockDetectedError):
                task.join(10)
    finally:
        sys.setswitchinterval(interval)
    ph.deregister()


def thread_crossed(runtime, aborted_at: list) -> list:
    """Two thread tasks, two phasers, crossed arrivals: each records
    when its wait raised."""
    ph1 = Phaser(runtime, register_self=False, name="p")
    ph2 = Phaser(runtime, register_self=False, name="q")
    gate = threading.Event()  # both are members before either arrives

    def body(ph: Phaser) -> None:
        gate.wait(10)
        try:
            ph.arrive_and_await_advance()
        except DeadlockError:
            aborted_at.append(time.monotonic())
            raise

    tasks = [
        runtime.spawn(body, ph, register=[ph1, ph2], name=name)
        for ph, name in ((ph1, "t1"), (ph2, "t2"))
    ]
    gate.set()
    return tasks


def abort_latency_threads(runtime) -> float:
    aborted_at: list = []
    tasks = thread_crossed(runtime, aborted_at)
    deadline = time.monotonic() + 10
    while runtime.checker.dependency.blocked_count() < 2 and not runtime.reports:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    blocked_at = time.monotonic()
    for task in tasks:
        with pytest.raises(DeadlockDetectedError):
            task.join(10)
    return max(aborted_at) - blocked_at


def abort_latency_aio(runtime) -> float:
    async def main() -> float:
        loop = asyncio.get_running_loop()
        tasks = crossed_pair(runtime)
        deadline = loop.time() + 10
        while runtime.checker.dependency.blocked_count() < 2 and not runtime.reports:
            assert loop.time() < deadline
            await asyncio.sleep(0.001)
        blocked_at = time.monotonic()
        for task in tasks:
            with pytest.raises(DeadlockDetectedError):
                await task.wait(10)
        return time.monotonic() - blocked_at

    return asyncio.run(main())


@pytest.mark.parametrize("backend", ["threads", "aio"])
def test_detection_to_abort_is_one_period_plus_a_bounded_term(
    runtime_factory, backend
):
    runtime = runtime_factory("detection", interval_s=INTERVAL_S)
    measure = {"threads": abort_latency_threads, "aio": abort_latency_aio}[backend]
    latency = measure(runtime)
    assert len(runtime.reports) == 1
    assert latency <= INTERVAL_S + ABORT_BOUND_S, latency
