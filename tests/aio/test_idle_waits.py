"""Idle waiters cost nothing: a parked wait ends only by a wake.

Thread and coroutine waiters park on one phaser whose last member never
arrives.  Nothing makes progress for a second, so no waiter may
evaluate its predicate even once: a timer behind the wait would show
up here as one evaluation per waiter per period.  The release then has
to wake every waiter — the thread ones through the condition, the
coroutines through the runtime's wake hook, since the releasing thread
is not their loop's.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.aio import AioPhaser, aio_spawn
from repro.runtime.phaser import Phaser

THREAD_WAITERS = 16
AIO_WAITERS = 128
IDLE_S = 1.0


def wait_until(condition, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_parked_waiters_evaluate_nothing_until_released(
    detection_runtime, predicate_evaluations
):
    runtime = detection_runtime
    evaluations = predicate_evaluations
    # The calling task is the member that never arrives.
    ph = Phaser(runtime, register_self=True, name="idle")
    aio_failures: list = []
    loop_ready = threading.Event()

    def run_loop() -> None:
        async def body() -> None:
            await AioPhaser(phaser=ph).arrive_and_wait()

        async def main() -> None:
            tasks = [
                aio_spawn(body, runtime=runtime, register=[ph], name=f"c{i}")
                for i in range(AIO_WAITERS)
            ]
            loop_ready.set()
            for task in tasks:
                await task.wait(30)

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 - asserted below
            aio_failures.append(exc)

    loop_thread = threading.Thread(target=run_loop, daemon=True)
    loop_thread.start()
    assert loop_ready.wait(10)
    threads = [
        runtime.spawn(ph.arrive_and_await_advance, register=[ph], name=f"t{i}")
        for i in range(THREAD_WAITERS)
    ]
    try:
        total = THREAD_WAITERS + AIO_WAITERS
        wait_until(lambda: runtime.checker.dependency.blocked_count() == total)
        # Every waiter makes one last check after publishing its status;
        # let those land before the idle window opens.
        time.sleep(0.2)
        before = len(evaluations)
        time.sleep(IDLE_S)
        assert len(evaluations) - before == 0
    finally:
        ph.arrive_and_deregister()
    for task in threads:
        task.join(10)
    loop_thread.join(30)
    assert not loop_thread.is_alive()
    assert not aio_failures
    assert runtime.checker.dependency.blocked_count() == 0
    assert not runtime.reports
