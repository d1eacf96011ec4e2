"""Periodic detection monitor (Section 5: detection mode).

In detection mode "verification is performed periodically and can only
report already existing deadlocks, with the benefit of a lower performance
overhead" — the paper runs JArmus every 100 ms locally and Armus-X10 every
200 ms distributed, with a dedicated verification task so that overhead
does not grow with the number of application tasks (Section 6.1).

:class:`DetectionMonitor` is that dedicated task: a daemon thread that
snapshots the checker's resource-dependency on a fixed interval, runs cycle
detection with revalidation, and invokes a callback with each confirmed
:class:`~repro.core.report.DeadlockReport`.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.core.checker import DeadlockChecker
from repro.core.report import DeadlockReport
from repro.obs.registry import NULL_REGISTRY

ReportCallback = Callable[[DeadlockReport], None]

#: Default detection period, matching the paper's local configuration.
DEFAULT_INTERVAL_S = 0.1


class DetectionMonitor:
    """Background periodic deadlock detector.

    Parameters
    ----------
    checker:
        The checker whose resource-dependency is monitored.
    interval_s:
        Period between checks (100 ms in the paper's local runs).
    on_deadlock:
        Callback invoked (from the monitor thread) per confirmed report.
        The runtime installs a callback that cancels the deadlocked tasks;
        a deadlock the callback leaves in place is filed once, not at
        every interval (see :meth:`poll_once`).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        enabled, the monitor counts its polls and confirmed reports
        (both volatile — poll counts are wall-clock artefacts).
    """

    def __init__(
        self,
        checker: DeadlockChecker,
        interval_s: float = DEFAULT_INTERVAL_S,
        on_deadlock: Optional[ReportCallback] = None,
        metrics=None,
    ) -> None:
        self.checker = checker
        self.interval_s = interval_s
        self.on_deadlock = on_deadlock
        self.reports: List[DeadlockReport] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        # The task set the previous poll found deadlocked, if any.
        self._standing: Optional[frozenset] = None
        if metrics is None:
            metrics = NULL_REGISTRY
        self.metrics = metrics
        self._m_polls = metrics.counter(
            "repro_monitor_polls_total",
            "Detection passes run by the periodic monitor.",
            volatile=True,
        )
        self._m_reports = metrics.counter(
            "repro_monitor_reports_total",
            "Confirmed deadlock reports filed by the monitor.",
            volatile=True,
        )

    # ------------------------------------------------------------------
    def start(self) -> "DetectionMonitor":
        """Start the monitor thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="armus-detector", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the monitor and join its thread."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)

    def __enter__(self) -> "DetectionMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def poll_once(self) -> Optional[DeadlockReport]:
        """Run a single detection pass synchronously (used by tests and by
        callers that schedule their own periodic execution).

        Returns the check's answer.  A report is filed (recorded, counted,
        passed to the callback) unless the previous poll found the same
        task set — keyed like a site's report, so a bystander joining an
        SG report is filed and cancelled too; a poll that finds no
        deadlock re-arms the monitor.
        """
        self._m_polls.inc()
        report = self.checker.check(revalidate=True)
        tasks = None if report is None else frozenset(report.tasks)
        with self._lock:
            fresh = tasks is not None and tasks != self._standing
            self._standing = tasks
        if fresh:
            self._m_reports.inc()
            self.reports.append(report)
            if self.on_deadlock is not None:
                self.on_deadlock(report)
        return report

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.poll_once()
