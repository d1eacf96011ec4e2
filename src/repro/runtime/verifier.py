"""The runtime verifier: configuration, task registry, observer hooks.

:class:`ArmusRuntime` ties the core checker to a population of tasks and
instrumented synchronizers.  It plays the role of the Armus *tool*
configuration (Section 5): a verification mode (off / detection /
avoidance), a graph-model selection (fixed WFG, fixed SG, adaptive), and
the check cadence.  Synchronizers call two hooks:

* :meth:`ArmusRuntime.block_entry` — the task observer's "task is about
  to block" notification, carrying the event-based blocked status.  In
  avoidance mode this runs a synchronous check and reports a would-be
  deadlock *before* the task blocks; in detection mode it merely
  publishes the status for the periodic monitor.
* :meth:`ArmusRuntime.block_exit` — the task unblocked (or gave up).

On a detection hit the runtime cancels every task in the report, which
makes their blocking operations raise
:class:`~repro.core.report.DeadlockDetectedError` — deadlocked programs
terminate with a report instead of hanging.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.core.checker import DeadlockChecker
from repro.core.dependency import ResourceDependency
from repro.core.events import BlockedStatus
from repro.core.monitor import DetectionMonitor
from repro.core.report import DeadlockReport
from repro.core.selection import DEFAULT_THRESHOLD_FACTOR, GraphModel
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.runtime.tasks import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.recorder import TraceRecorder


class VerificationMode(enum.Enum):
    """Which verification strategy the runtime applies (Section 5)."""

    #: No verification: the uninstrumented baseline of the benchmarks.
    OFF = "off"
    #: Periodic checking by a dedicated monitor; reports existing deadlocks.
    DETECTION = "detection"
    #: Check before every block; raise instead of entering a deadlock.
    AVOIDANCE = "avoidance"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ArmusRuntime:
    """A verified task runtime.

    Parameters
    ----------
    mode:
        Verification mode; :attr:`VerificationMode.OFF` disables checking
        (hooks become cheap no-ops — the unchecked baseline).
    model:
        Graph-model selection handed to the checker.
    interval_s:
        Detection period (the paper: 100 ms local, 200 ms distributed).
    poll_s:
        Accepted and ignored: a verified wait ends only by a wake, never
        by a timer.  Kept for its two callers,
        ``benchmarks/e2e/workloads.py`` and ``benchmarks/e2e/layers.py``;
        it goes together with them.
    cancel_on_detect:
        Whether a detection hit cancels the deadlocked tasks (keeps test
        processes alive; disable to only collect reports).
    dependency:
        Optional shared blocked-status store (distributed sites share one
        global store through this hook).
    recorder:
        Optional :class:`~repro.trace.recorder.TraceRecorder`; when set,
        every block/unblock (and the synchronizers' register/advance
        context) is appended to it — recording works in *any* mode,
        including OFF (record cheaply now, replay offline later).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When an
        enabled registry is passed, the checker's instruments bind into
        it and the runtime adds its own: a live blocked-task gauge and
        block/unblock/report counters — the surface
        ``python -m repro.obs serve`` exposes.  Defaults to the no-op
        registry: zero telemetry, zero overhead beyond a few no-op
        calls per hook.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  When an enabled
        tracer is passed, every observer hook opens/closes a
        ``task.blocked`` span on the task's track — the runtime end of
        the causal chain runtime → publish → store → check → report.
        Defaults to the no-op tracer.
    """

    def __init__(
        self,
        mode: VerificationMode = VerificationMode.OFF,
        model: GraphModel = GraphModel.AUTO,
        interval_s: float = 0.1,
        poll_s: float = 0.005,
        cancel_on_detect: bool = True,
        threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
        dependency: Optional[ResourceDependency] = None,
        recorder: Optional["TraceRecorder"] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.mode = mode
        self.cancel_on_detect = cancel_on_detect
        self.recorder = recorder
        if metrics is None:
            metrics = NULL_REGISTRY
        self.metrics = metrics
        if tracer is None:
            tracer = NULL_TRACER
        self.tracer = tracer
        self.checker = DeadlockChecker(
            model=model, threshold_factor=threshold_factor,
            dependency=dependency, metrics=metrics,
        )
        self.monitor = DetectionMonitor(
            self.checker, interval_s=interval_s,
            on_deadlock=self._on_deadlock, metrics=metrics,
        )
        self.reports: List[DeadlockReport] = []
        self._reports_lock = threading.Lock()
        self._started = False
        self._m_blocked = metrics.gauge(
            "repro_blocked_tasks",
            "Tasks currently published as blocked.",
            volatile=True,
        )
        self._m_blocks = metrics.counter(
            "repro_block_events_total",
            "Observer hook invocations, by direction.",
            labels=("hook",), volatile=True,
        )
        self._m_block_entry = self._m_blocks.labels(hook="entry")
        self._m_block_exit = self._m_blocks.labels(hook="exit")
        self._m_reports = metrics.counter(
            "repro_deadlock_reports_total",
            "Deadlock reports collected by the runtime, by origin.",
            labels=("origin",), volatile=True,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ArmusRuntime":
        """Start background machinery (the detection monitor, if needed)."""
        if self._started:
            return self
        self._started = True
        if self.mode is VerificationMode.DETECTION:
            self.monitor.start()
        return self

    def stop(self) -> None:
        self.monitor.stop()
        self._started = False

    def __enter__(self) -> "ArmusRuntime":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # task registry
    # ------------------------------------------------------------------
    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        register: Iterable[object] = (),
        **kwargs: Any,
    ) -> Task:
        """Create and start a task; optionally register it with
        synchronizers *before* it starts (X10's ``async clocked(...)``).

        Registration-before-start inherits the spawning task's phase and
        guarantees a child can never miss the phase it was spawned in —
        the race Section 2.2 warns about when the parent is simply not
        registered.
        """
        task = Task(self, fn, args, kwargs, name=name)
        self.adopt_spawn_context(task, self.current_task(), register)
        task.start()
        return task

    def adopt_spawn_context(
        self, task: Task, parent: Task, register: Iterable[object] = ()
    ) -> None:
        """Inherit ``parent``'s spawn context into a not-yet-started task.

        X10 nested-finish semantics: children inherit the spawning
        task's enclosing finish scopes and register with each of their
        join barriers (Section 2.2); spawn-time registrations follow.
        Shared by thread spawns and :func:`repro.aio.aio_spawn`.
        """
        enclosing = tuple(getattr(parent, "_finish_scopes", ()))
        for scope in enclosing:
            scope._adopt_spawn(task, parent)
        task._finish_scopes = list(enclosing)  # type: ignore[attr-defined]
        for sync in register:
            register_child = getattr(sync, "register_child")
            register_child(task, parent)

    def current_task(self) -> Task:
        """The calling thread's task, adopting foreign threads on demand."""
        from repro.runtime.tasks import current_task

        return current_task(adopting_runtime=self)

    def task_by_id(self, task_id: str) -> Optional[Task]:
        """Find a task by id; the directory is process-global, so tasks of
        other sites are visible too (cancellation across sites)."""
        from repro.runtime.tasks import lookup_task

        return lookup_task(task_id)

    # ------------------------------------------------------------------
    # resource ids
    # ------------------------------------------------------------------
    def new_resource_id(self, label: str) -> str:
        """A unique, readable id for a synchronizer (the resource mapper).

        Ids are unique process-wide: a synchronizer shared by several
        sites (a distributed clock) must name the same resource in every
        site's constraints.
        """
        with _rid_lock:
            global _rid_counter
            _rid_counter += 1
            return f"{label}#{_rid_counter}"

    # ------------------------------------------------------------------
    # observer hooks (called by synchronizers around blocking waits)
    # ------------------------------------------------------------------
    def block_entry(
        self, task: Task, status: BlockedStatus
    ) -> Optional[DeadlockReport]:
        """Notify that ``task`` is about to block with ``status``.

        Returns ``None`` when the task may proceed to wait (the status is
        now published); returns the report when blocking would complete a
        deadlock (avoidance mode) — the caller must *not* block and should
        raise :class:`DeadlockAvoidedError` after any cleanup
        (deregistration) it performs.
        """
        if self.recorder is not None:
            self.recorder.record_block(task.task_id, status)
        if self.tracer.enabled:
            self.tracer.begin(
                "task.blocked", f"task:{task.task_id}", key=task.task_id,
                waits=" ".join(sorted(str(e) for e in status.waits)),
            )
        if self.mode is VerificationMode.OFF:
            return None
        self._m_block_entry.inc()
        if self.mode is VerificationMode.DETECTION:
            self.checker.set_blocked(task.task_id, status)
            self._sync_blocked_gauge()
            return None
        report = self.checker.check_before_block(task.task_id, status)
        self._sync_blocked_gauge()
        if report is not None:
            self._m_reports.inc(origin="avoidance")
            with self._reports_lock:
                self.reports.append(report)
        return report

    def block_exit(self, task: Task) -> None:
        """Notify that ``task`` stopped waiting (success, error or abort)."""
        if self.recorder is not None:
            self.recorder.record_unblock(task.task_id)
        if self.tracer.enabled:
            self.tracer.end(task.task_id)
        if self.mode is VerificationMode.OFF:
            return
        self._m_block_exit.inc()
        self.checker.clear(task.task_id)
        self._sync_blocked_gauge()

    def _sync_blocked_gauge(self) -> None:
        """Publish the authoritative blocked count (drift-free under
        republication, unlike inc/dec pairs)."""
        if self.metrics.enabled:
            self._m_blocked.set(self.checker.dependency.blocked_count())

    # ------------------------------------------------------------------
    # trace-context hooks (no verification effect; recording only)
    # ------------------------------------------------------------------
    def notify_register(self, task: Task, resource_id: str, phase: int) -> None:
        """Record that ``task`` joined ``resource_id`` at ``phase``."""
        if self.recorder is not None:
            self.recorder.record_register(task.task_id, resource_id, phase)

    def notify_advance(self, task: Task, resource_id: str, phase: int) -> None:
        """Record that ``task`` arrived at ``resource_id``, reaching
        ``phase``."""
        if self.recorder is not None:
            self.recorder.record_advance(task.task_id, resource_id, phase)

    # ------------------------------------------------------------------
    # detection callback
    # ------------------------------------------------------------------
    def _on_deadlock(self, report: DeadlockReport) -> None:
        self._m_reports.inc(origin="detection")
        with self._reports_lock:
            self.reports.append(report)
        if not self.cancel_on_detect:
            return
        for task_id in report.tasks:
            task = self.task_by_id(task_id)
            if task is not None:
                task.cancel(report)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Checker accounting (edge counts, models used, check times)."""
        return self.checker.stats


_rid_lock = threading.Lock()
_rid_counter = 0

_default_lock = threading.Lock()
_default_runtime: Optional[ArmusRuntime] = None


def get_default_runtime() -> ArmusRuntime:
    """The process-wide runtime used when none is passed explicitly."""
    global _default_runtime
    with _default_lock:
        if _default_runtime is None:
            _default_runtime = ArmusRuntime()
        return _default_runtime


def set_default_runtime(runtime: ArmusRuntime) -> None:
    global _default_runtime
    with _default_lock:
        _default_runtime = runtime
