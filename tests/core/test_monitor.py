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

    def test_a_persisting_deadlock_is_reported_every_interval(self):
        """Nothing resolves the deadlock here, so the monitor keeps
        finding it — the runtime's cancelling callback is what stops
        repeated reports, not the monitor."""
        checker = DeadlockChecker()
        load_deadlock(checker)
        monitor = DetectionMonitor(checker, interval_s=0.01)
        monitor.start()
        deadline = time.time() + 5.0
        while len(monitor.reports) < 2 and time.time() < deadline:
            time.sleep(0.005)
        monitor.stop()
        assert len(monitor.reports) >= 2
        assert monitor.reports[0] == monitor.reports[1]
