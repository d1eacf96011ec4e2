"""Reusable asyncio workloads: the high-task-count scenarios the
backend exists for.

These are the async twins of the CLI's recordable scenarios and the
stress-test shapes: a deterministic two-task crossed knot (the smallest
deadlock, blocks serialised for reproducible traces), an ``n``-task
phaser ring (the classic cycle, at event-loop scale — thousands of
tasks where the thread backend tops out at hundreds), and deadlock-free
SPMD barrier rounds (the ``live_barrier`` workload of
``benchmarks/e2e/``).

Each helper only *spawns*; joining — and whether a deadlock report is
the expected outcome — is the caller's business.
"""

from __future__ import annotations

import asyncio
from typing import List

from repro.aio.sync import AioPhaser
from repro.aio.tasks import AioTask, aio_spawn
from repro.runtime.phaser import Phaser
from repro.runtime.verifier import ArmusRuntime


async def _until_blocked(runtime: ArmusRuntime, count: int, timeout_s: float = 10.0) -> None:
    """Poll until ``count`` tasks are blocked — or a report already
    resolved the deadlock (avoidance/detection can win the race)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while runtime.checker.dependency.blocked_count() < count:
        if runtime.reports:
            return
        if loop.time() > deadline:
            raise TimeoutError(f"never saw {count} blocked task(s)")
        await asyncio.sleep(0.001)


def crossed_pair(runtime: ArmusRuntime) -> List[AioTask]:
    """The smallest knot: two tasks, two phasers, crossed arrivals.

    The second task enters its wait only after the first is published,
    so the recorded block order — and with it the whole trace — is
    deterministic.
    """
    ph1 = Phaser(runtime, register_self=False, name="p")
    ph2 = Phaser(runtime, register_self=False, name="q")

    async def first() -> None:
        await AioPhaser(phaser=ph1).arrive_and_wait()

    async def second() -> None:
        await _until_blocked(runtime, 1)
        await AioPhaser(phaser=ph2).arrive_and_wait()

    t1 = aio_spawn(first, runtime=runtime, register=[ph1, ph2], name="t1")
    t2 = aio_spawn(second, runtime=runtime, register=[ph1, ph2], name="t2")
    return [t1, t2]


def phaser_ring(runtime: ArmusRuntime, n_tasks: int) -> List[AioTask]:
    """An ``n``-task ring of phasers: task ``i`` arrives at its own
    phaser ``c_i`` and waits on it, but ``c_i``'s other member — task
    ``i+1`` — never arrives: every task blocks, closing an ``n``-cycle.

    Tasks are scheduled in spawn order and each runs straight to its
    park, so blocks land in the trace as ``a0..a{n-1}`` — an
    ``n``-thousand-task deadlock with a deterministic recording.
    """
    if n_tasks < 2:
        raise ValueError("a ring needs at least 2 tasks")
    phasers = [
        Phaser(runtime, register_self=False, name=f"c{i}") for i in range(n_tasks)
    ]

    async def body(i: int) -> None:
        ph = AioPhaser(phaser=phasers[i])
        await ph.arrive()
        await ph.wait(1)

    return [
        aio_spawn(
            body,
            i,
            runtime=runtime,
            register=[phasers[i], phasers[(i - 1) % n_tasks]],
            name=f"a{i}",
        )
        for i in range(n_tasks)
    ]


def barrier_rounds(
    runtime: ArmusRuntime, n_tasks: int, rounds: int
) -> List[AioTask]:
    """Deadlock-free SPMD rounds on one shared phaser (the throughput
    shape: ``n_tasks * rounds`` verified synchronisations)."""
    ph = Phaser(runtime, register_self=False, name="bar")

    async def body() -> None:
        mine = AioPhaser(phaser=ph)
        for _ in range(rounds):
            await mine.arrive_and_wait()

    return [
        aio_spawn(body, runtime=runtime, register=[ph], name=f"w{i}")
        for i in range(n_tasks)
    ]
