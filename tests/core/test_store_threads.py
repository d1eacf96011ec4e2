"""One lock, many writers: a shared store under concurrent writes.

Four writer threads hammer one :class:`ResourceDependency` — two through
an :class:`IncrementalChecker` subscribed to it, two straight into the
store — with ``set_blocked`` of fresh and earlier status objects and
``clear`` on overlapping tasks, while a reader loops ``check()`` and
``check_before_block`` on a task of its own.  The store's lock is the
only thing ordering the table, the listener and the queries, so a lost
update or a listener run outside it leaves the maintained graph
different from one rebuilt from the snapshot at quiescence.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.dependency import ResourceDependency
from repro.core.events import BlockedStatus, Event, waiting_on
from repro.core.graphs import build_wfg
from repro.core.incremental import IncrementalChecker

TASKS = [f"t{i}" for i in range(6)]
PHASERS = ["p", "q", "r"]
OPS_PER_WRITER = 400
#: Knot/unknot batch pairs the atomicity test writes: enough that an
#: unlocked batch is read half-written in most runs.
BATCH_ROUNDS = 40_000
JOIN_TIMEOUT_S = 10


def random_status(rng: random.Random) -> BlockedStatus:
    return BlockedStatus(
        waits=frozenset(
            Event(rng.choice(PHASERS), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))
        ),
        registered={
            p: rng.randint(0, 3)
            for p in rng.sample(PHASERS, rng.randint(0, len(PHASERS)))
        },
    )


def test_concurrent_writers_leave_the_maintained_graph_exact():
    store = ResourceDependency()
    checker = IncrementalChecker(dependency=store)
    failures: list = []
    done = threading.Event()

    def guarded(body):
        def run():
            try:
                body()
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)
        return run

    def writer(target, seed):
        def body():
            rng = random.Random(seed)
            published = []
            for _ in range(OPS_PER_WRITER):
                task = rng.choice(TASKS)
                op = rng.random()
                if op < 0.5 or not published:
                    status = random_status(rng)
                    target.set_blocked(task, status)
                    published.append((task, status))
                elif op < 0.7:
                    target.clear(task)
                elif op < 0.85 or target is store:
                    target.set_blocked(*rng.choice(published))
                else:
                    # A batch defers SCC resolution to the next query.
                    target.apply_batch([
                        ("clear", task, None),
                        ("set", *rng.choice(published)),
                    ])
        return body

    def reader():
        rng = random.Random(99)
        while not done.is_set():
            checker.check()
            status = random_status(rng)
            report = checker.check_before_block("reader", status)
            # Accepted: published as is; refused: taken back.
            assert (report is None) == store.is_current("reader", status)
            # Walks every vertex and edge set a listener call mutates.
            assert checker.maintained_graph().edge_count >= 0

    writers = [
        threading.Thread(target=guarded(writer(target, seed)), daemon=True)
        for seed, target in enumerate((checker, checker, store, store))
    ]
    reading = threading.Thread(target=guarded(reader), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writers + [reading]:
            thread.start()
        for thread in writers:
            thread.join(JOIN_TIMEOUT_S)
        done.set()
        reading.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(t.is_alive() for t in writers + [reading]), "deadlocked"
    assert not failures, failures
    rebuilt = build_wfg(store.snapshot())
    assert checker.maintained_graph() == rebuilt
    assert checker.wfg_edge_count == rebuilt.edge_count
    assert (checker.check() is None) == (
        IncrementalChecker(dependency=store).check() is None
    )


@pytest.mark.parametrize("engine", [DeadlockChecker, IncrementalChecker],
                         ids=lambda engine: engine.__name__)
def test_a_batch_is_atomic_to_a_concurrent_reader(engine):
    """``apply_batch`` holds the store's lock for the whole batch,
    whatever the checker class: a reader sees both statuses of a pair
    or neither."""
    checker = engine()
    knot = [("set", "a", waiting_on("p", 1, p=1, q=0)),
            ("set", "b", waiting_on("q", 1, q=1, p=0))]
    unknot = [("clear", "a", None), ("clear", "b", None)]
    torn, reads = [], [0]
    done = threading.Event()

    def writer():
        for _ in range(BATCH_ROUNDS):
            checker.apply_batch(knot)
            checker.apply_batch(unknot)

    def reader():
        while not done.is_set():
            tasks = set(checker.dependency.snapshot().statuses)
            reads[0] += 1
            if len(tasks) == 1:
                torn.append(tasks)

    threads = [threading.Thread(target=writer, daemon=True),
               threading.Thread(target=reader, daemon=True)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        threads[0].join(JOIN_TIMEOUT_S)
        done.set()
        threads[1].join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(t.is_alive() for t in threads), "deadlocked"
    assert reads[0] > 0
    assert not torn, torn[:3]
