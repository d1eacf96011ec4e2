"""Detection-monitor tests: periodic checking, callbacks, lifecycle."""

from __future__ import annotations

import time

from repro.core.checker import DeadlockChecker
from repro.core.events import waiting_on
from repro.core.monitor import DetectionMonitor


def load_deadlock(checker: DeadlockChecker) -> None:
    checker.set_blocked("a", waiting_on("p", 1, p=1, q=0))
    checker.set_blocked("b", waiting_on("q", 1, q=1, p=0))


class TestPolling:
    def test_poll_once_reports(self):
        checker = DeadlockChecker()
        load_deadlock(checker)
        monitor = DetectionMonitor(checker)
        report = monitor.poll_once()
        assert report is not None
        assert monitor.reports == [report]

    def test_poll_once_clean(self):
        monitor = DetectionMonitor(DeadlockChecker())
        assert monitor.poll_once() is None
        assert monitor.reports == []

    def test_callback_invoked(self):
        checker = DeadlockChecker()
        load_deadlock(checker)
        seen = []
        DetectionMonitor(checker, on_deadlock=seen.append).poll_once()
        assert len(seen) == 1


class TestBackgroundThread:
    def test_detects_within_interval(self):
        checker = DeadlockChecker()
        seen = []
        with DetectionMonitor(
            checker, interval_s=0.01, on_deadlock=seen.append
        ):
            load_deadlock(checker)
            deadline = time.time() + 5.0
            while not seen and time.time() < deadline:
                time.sleep(0.005)
        assert seen and seen[0].tasks == ("a", "b")

    def test_start_is_idempotent(self):
        monitor = DetectionMonitor(DeadlockChecker(), interval_s=0.01)
        assert monitor.start() is monitor.start()
        monitor.stop()

    def test_stop_without_start(self):
        DetectionMonitor(DeadlockChecker()).stop()

    def test_a_persisting_deadlock_is_found_every_poll_and_filed_once(self):
        """Nothing resolves the deadlock here: every poll still answers
        it, but only the first files it (records, counts, calls back)."""
        checker = DeadlockChecker()
        load_deadlock(checker)
        seen = []
        monitor = DetectionMonitor(checker, on_deadlock=seen.append)
        answers = [monitor.poll_once() for _ in range(3)]
        assert all(a is not None and a == answers[0] for a in answers)
        assert monitor.reports == seen == answers[:1]

    def test_a_standing_deadlock_is_filed_once(self):
        checker = DeadlockChecker()
        load_deadlock(checker)
        monitor = DetectionMonitor(checker, interval_s=0.01)
        monitor.start()
        time.sleep(1.0)
        monitor.stop()
        assert len(monitor.reports) == 1

    def test_a_deadlock_that_clears_and_recurs_is_filed_twice(self):
        checker = DeadlockChecker()
        load_deadlock(checker)
        monitor = DetectionMonitor(checker, interval_s=0.01)
        polls = []
        poll_once = monitor.poll_once
        monitor.poll_once = lambda: polls.append(poll_once())
        monitor.start()

        def wait_for_polls(count):
            deadline = time.time() + 5.0
            while len(polls) < count and time.time() < deadline:
                time.sleep(0.005)
            assert len(polls) >= count

        wait_for_polls(5)
        checker.clear("a")
        wait_for_polls(len(polls) + 5)
        load_deadlock(checker)
        wait_for_polls(len(polls) + 5)
        monitor.stop()
        assert None in polls
        assert len(monitor.reports) == 2
        assert {frozenset(r.tasks) for r in monitor.reports} == {frozenset("ab")}
