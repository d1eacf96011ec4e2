"""Async synchronizer adapters: phaser, barrier, latch, lock — and
mixed thread/asyncio use of one shared synchronizer."""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro.aio import AioBarrier, AioLatch, AioLock, AioPhaser, aio_spawn, notify
from repro.runtime.modes import RegistrationMode
from repro.runtime.observer import notify_waiters
from repro.runtime.phaser import Phaser, PhaserMembershipError
from repro.runtime.verifier import ArmusRuntime, VerificationMode


@pytest.fixture
def runtime():
    rt = ArmusRuntime(mode=VerificationMode.DETECTION, interval_s=0.05).start()
    yield rt
    rt.stop()


class TestAioPhaser:
    def test_spmd_rounds(self, runtime):
        """N tasks x R verified barrier rounds, deadlock-free."""
        n, rounds = 20, 5
        progress = []

        async def main():
            ph = AioPhaser(runtime, register_self=False, name="bar")

            async def body(i):
                mine = AioPhaser(phaser=ph.phaser)
                for r in range(rounds):
                    await mine.arrive_and_wait()
                    progress.append((i, r))

            tasks = [
                aio_spawn(body, i, runtime=runtime, register=[ph], name=f"w{i}")
                for i in range(n)
            ]
            for t in tasks:
                await t.wait(20)

        asyncio.run(main())
        assert len(progress) == n * rounds
        # Rounds are barriers: nobody reaches round r+1 before everyone
        # finished round r.
        for r in range(rounds):
            chunk = progress[r * n : (r + 1) * n]
            assert {entry[1] for entry in chunk} == {r}
        assert not runtime.reports

    def test_membership_errors_propagate(self, runtime):
        async def main():
            ph = AioPhaser(runtime, register_self=False, name="p")
            with pytest.raises(PhaserMembershipError):
                await ph.arrive()

        asyncio.run(main())

    def test_bounded_producer_parks_until_consumer(self, runtime):
        """A producer more than ``bound`` ahead parks; consumer progress
        frees it — the HJ bounded-phaser semantics, async."""
        seen = []

        async def main():
            ph = AioPhaser(runtime, register_self=False, name="buf", bound=2)

            async def producer():
                mine = AioPhaser(phaser=ph.phaser)
                for i in range(5):
                    await mine.arrive()
                    seen.append(("produced", i))

            async def consumer():
                mine = AioPhaser(phaser=ph.phaser)
                for i in range(5):
                    await asyncio.sleep(0.01)
                    await mine.wait()
                    seen.append(("consumed", i))

            prod = aio_spawn(
                producer, runtime=runtime,
                register=[ph.phaser.in_mode(RegistrationMode.SIG)],
            )
            cons = aio_spawn(
                consumer, runtime=runtime,
                register=[ph.phaser.in_mode(RegistrationMode.WAIT)],
            )
            await prod.wait(20)
            await cons.wait(20)

        asyncio.run(main())
        # The producer can never run more than bound=2 items ahead.
        produced = consumed = 0
        for kind, _ in seen:
            if kind == "produced":
                produced += 1
            else:
                consumed += 1
            assert produced - consumed <= 3  # bound + the item in flight

    def test_arrive_and_deregister(self, runtime):
        async def main():
            ph = AioPhaser(runtime, register_self=False, name="join")

            async def worker():
                AioPhaser(phaser=ph.phaser).arrive_and_deregister()

            tasks = [
                aio_spawn(worker, runtime=runtime, register=[ph])
                for _ in range(3)
            ]
            for t in tasks:
                await t.wait(10)
            assert ph.registered_parties == 0

        asyncio.run(main())


class TestAioBarrier:
    def test_trips_and_cycles(self, runtime):
        async def main():
            bar = AioBarrier(3, runtime, name="cb")
            generations = []

            async def body():
                mine = AioBarrier(barrier=bar.barrier)
                for _ in range(3):
                    generations.append(await mine.wait())

            tasks = [aio_spawn(body, runtime=runtime) for _ in range(3)]
            for t in tasks:
                await t.wait(10)
            assert sorted(generations) == [0, 0, 0, 1, 1, 1, 2, 2, 2]

        asyncio.run(main())


class TestAioLatch:
    def test_wait_until_zero(self, runtime):
        async def main():
            latch = AioLatch(3, runtime, name="gate")
            released = []

            async def waiter():
                await latch.wait()
                released.append(True)

            async def counter():
                for _ in range(3):
                    await asyncio.sleep(0.005)
                    latch.count_down()

            w = aio_spawn(waiter, runtime=runtime)
            c = aio_spawn(counter, runtime=runtime)
            await c.wait(10)
            await w.wait(10)
            assert released and latch.count == 0

        asyncio.run(main())


class TestAioLock:
    def test_mutual_exclusion(self, runtime):
        async def main():
            lock = AioLock(runtime, name="mtx")
            inside = []

            async def body(i):
                async with lock:
                    inside.append(i)
                    assert len(inside) == 1, "two tasks inside the lock"
                    await asyncio.sleep(0.002)
                    inside.pop()

            tasks = [aio_spawn(body, i, runtime=runtime) for i in range(8)]
            for t in tasks:
                await t.wait(10)

        asyncio.run(main())

    def test_reentrant_for_owner(self, runtime):
        async def main():
            lock = AioLock(runtime, name="mtx")

            async def body():
                async with lock:
                    async with lock:
                        return lock.locked()

            assert await aio_spawn(body, runtime=runtime).wait(10)

        asyncio.run(main())


class TestMixedBackends:
    def test_thread_and_coroutine_share_a_phaser(self, runtime):
        """One phaser, one threaded member, one asyncio member: the
        barrier still trips (thread-side progress reaches parked
        coroutines through the runtime's wake hook; no timer backs it)."""
        ph = Phaser(runtime, register_self=False, name="mixed")
        gate = threading.Event()

        def threaded_body():
            gate.wait(10)
            ph.arrive_and_await_advance()

        async def main():
            async def aio_body():
                await AioPhaser(phaser=ph).arrive_and_wait()

            task = aio_spawn(aio_body, runtime=runtime, register=[ph])
            thread = runtime.spawn(threaded_body, register=[ph], name="thr")
            # The coroutine parks first (the thread is gated), so its
            # wake-up must come from thread-side progress.
            await asyncio.sleep(0.02)
            gate.set()
            await task.wait(10)
            thread.join(10)

        asyncio.run(main())
        assert not runtime.reports

    def test_mixed_rounds_lose_no_wake_under_a_short_switch_interval(self, runtime):
        """Threads and coroutines share a phaser for many rounds, with
        thread switches forced between almost every bytecode: a wake
        lost between a predicate check and a park would hang a round,
        and no timer would rescue it."""
        rounds, members = 100, 3
        ph = Phaser(runtime, register_self=False, name="stress")

        def threaded_body():
            for _ in range(rounds):
                ph.arrive_and_await_advance()

        async def aio_body():
            mine = AioPhaser(phaser=ph)
            for _ in range(rounds):
                await mine.arrive_and_wait()

        async def main():
            coroutines = [
                aio_spawn(aio_body, runtime=runtime, register=[ph])
                for _ in range(members)
            ]
            threads = [
                runtime.spawn(threaded_body, register=[ph]) for _ in range(members)
            ]
            for task in coroutines:
                await task.wait(60)
            return threads

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = asyncio.run(main())
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert all(thread.done() for thread in threads)
        assert ph.phase == 0 and not runtime.reports  # every member left

    def test_wakes_to_an_idle_loop_coalesce_and_a_closed_one_is_dropped(self):
        """Thread-side progress queues one wake on a loop that is not
        running, however often it notifies, and forgets a closed loop."""
        loop = asyncio.new_event_loop()
        cond = threading.Condition()
        try:
            notifier = notify.notifier_for(loop)
            ran = []
            wake_local = notifier.wake_local
            notifier.wake_local = lambda: (ran.append(None), wake_local())
            woken = notifier.park()
            for _ in range(100):
                with cond:
                    notify_waiters(cond)
            loop.run_until_complete(asyncio.sleep(0))
            assert woken.done() and len(ran) == 1
            notifier.park()
            for _ in range(2):  # the wake queued first never runs
                with cond:
                    notify_waiters(cond)
                loop.close()
            assert notifier not in notify._parking
        finally:
            loop.close()
