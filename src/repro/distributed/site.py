"""A distributed site: one place of an X10-style cluster (Section 5.2).

Each site owns an :class:`~repro.runtime.verifier.ArmusRuntime` whose
blocked statuses it periodically publishes to the global store, plus a
checking loop running the one-phase detection over the global view.
Every site checks (fault tolerance: no control site); reports are
de-duplicated per site and the involved *local* tasks are cancelled,
while remote tasks are cancelled by their own site when it observes the
same cycle.

Publishing runs the **delta protocol**
(:mod:`repro.distributed.delta`): each round the site diffs its
runtime's dependency against the last committed publication and appends
only the change — a ``set``/``clear`` delta, or nothing at
all when the blocked set is unchanged — with a full snapshot checkpoint
on the first publish, on the publisher's cadence (at least every
:data:`~repro.distributed.delta.CHECKPOINT_EVERY` deltas), and whenever
the store reports a sequence gap (its history diverged from the
publisher's, e.g. after failover onto a stale replica).  Both loops run
their body once *immediately* on start, then on their interval — a
short-lived site is visible to the cluster from its first scheduling
quantum instead of after ``publish_interval_s``.

Failure injection for tests and fault-tolerance benches:

* :meth:`Site.kill` — abrupt site death: loops stop, its stale delta
  stream remains in the store (exactly what a crashed machine leaves
  behind);
* store outages — both loops tolerate
  :class:`~repro.distributed.store.StoreUnavailableError` by skipping the
  round, and recover when the store returns; an un-committed delta is
  re-derived next round, so outages never burn sequence numbers.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, List, Optional

from repro.core.report import DeadlockReport
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaPublisher, DeltaSequenceError, encode_bucket
from repro.distributed.detector import DistributedChecker
from repro.distributed.store import StoreUnavailableError
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.runtime.tasks import Task
from repro.runtime.verifier import ArmusRuntime, VerificationMode

log = logging.getLogger(__name__)

#: The paper's distributed detection period (Armus-X10: every 200 ms).
DEFAULT_CHECK_INTERVAL_S = 0.2
DEFAULT_PUBLISH_INTERVAL_S = 0.05


class Site:
    """One place of the simulated cluster.

    Parameters
    ----------
    site_id:
        Unique site name (its bucket key in the store).
    store:
        The shared global store (or a replicated facade).
    model:
        Graph model for the site's global checks.
    check_interval_s / publish_interval_s:
        Cadences of the two loops.
    cancel_on_detect:
        Cancel local tasks involved in a detected cycle.
    recorder:
        Optional :class:`~repro.trace.recorder.TraceRecorder` wired into
        this site's runtime, capturing its tasks' block/unblock stream
        (attach the same recorder to the store to also capture
        publishes).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`,
        propagated to the site's runtime and global checker.  The site
        itself adds publish-outcome counters (delta / checkpoint / noop
        / gap-forced checkpoint) and a delta op-size histogram, all
        labelled by ``site``.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`, propagated to the
        runtime (block spans) and global checker (sync spans).  The
        site itself spans each publish round on its ``site:<id>`` track
        and — when tracing is enabled — publishes deltas with a wire
        trace context (``carry_trace``), so a consumer can tie a store
        entry back to the publish span that produced it.
    """

    def __init__(
        self,
        site_id: str,
        store,
        model: GraphModel = GraphModel.AUTO,
        check_interval_s: float = DEFAULT_CHECK_INTERVAL_S,
        publish_interval_s: float = DEFAULT_PUBLISH_INTERVAL_S,
        cancel_on_detect: bool = True,
        on_deadlock: Optional[Callable[[DeadlockReport], None]] = None,
        recorder=None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.site_id = site_id
        self.store = store
        if metrics is None:
            metrics = NULL_REGISTRY
        self.metrics = metrics
        if tracer is None:
            tracer = NULL_TRACER
        self.tracer = tracer
        # Local runtime in DETECTION mode: blocking ops publish statuses
        # into the local dependency; the monitor stays off — the site's
        # own checking loop replaces it.
        self.runtime = ArmusRuntime(
            mode=VerificationMode.DETECTION,
            model=model,
            cancel_on_detect=False,
            recorder=recorder,
            metrics=metrics,
            tracer=tracer,
        )
        self.checker = DistributedChecker(
            store, model=model, metrics=metrics, tracer=tracer
        )
        self.publisher = DeltaPublisher(site_id, carry_trace=tracer.enabled)
        self.check_interval_s = check_interval_s
        self.publish_interval_s = publish_interval_s
        self.cancel_on_detect = cancel_on_detect
        self.on_deadlock = on_deadlock
        self.reports: List[DeadlockReport] = []
        self.publish_failures = 0
        self.check_failures = 0
        #: Unexpected loop-body failures, by loop name ("publisher" /
        #: "checker").  A populated slot means that loop thread is dead:
        #: the site looks idle from outside but is not publishing (or
        #: not checking) — callers and health surfaces must be able to
        #: see the difference.
        self.loop_errors: Dict[str, BaseException] = {}
        self._seen_cycles: set = set()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._alive = False
        self._m_publishes = metrics.counter(
            "repro_site_publishes_total",
            "Publish rounds, by outcome: noop (no change), delta, "
            "checkpoint (cadence), gap_checkpoint (store lost our "
            "tail), failure (store unreachable), error (loop body "
            "raised; the publisher thread is dead).",
            labels=("site", "outcome"),
        )
        self._m_delta_ops = metrics.histogram(
            "repro_site_delta_ops",
            "Operations per published delta (diff size).",
            labels=("site",),
        )
        self._m_check_rounds = metrics.counter(
            "repro_site_check_rounds_total",
            "Global detection rounds run by this site.",
            labels=("site",), volatile=True,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Site":
        with self._lock:
            if self._alive:
                return self
            self._alive = True
        self._stop.clear()
        for name, target, interval in (
            ("publisher", self._publish_once, self.publish_interval_s),
            ("checker", self._check_once, self.check_interval_s),
        ):
            thread = threading.Thread(
                target=self._loop,
                args=(name, target, interval),
                name=f"{self.site_id}-{name}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 5.0) -> bool:
        """Graceful shutdown: loops drain, the delta stream is withdrawn.

        Returns ``True`` when every loop thread exited within
        ``timeout``.  A thread still alive after its join — a wedged
        loop body — is logged and makes the result ``False``; the
        wedged threads stay tracked (not silently dropped), so a later
        ``stop`` can observe whether they ever died.
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
            if thread.is_alive():
                log.warning(
                    "site %s: loop thread %s still alive %.1fs after stop "
                    "(wedged body? shutdown is dirty)",
                    self.site_id, thread.name, timeout,
                )
        self._threads = [t for t in self._threads if t.is_alive()]
        clean = not self._threads
        with self._lock:
            self._alive = False
        try:
            self.store.delete(self.site_id)
        except StoreUnavailableError:
            pass
        return clean

    def kill(self) -> None:
        """Abrupt site death: loops stop, the stale delta stream stays
        behind in the store."""
        self._stop.set()
        with self._lock:
            self._alive = False

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._alive

    def __enter__(self) -> "Site":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # spawning (the at (p) async of X10)
    # ------------------------------------------------------------------
    def spawn(self, fn, *args, **kwargs) -> Task:
        """Run a task at this place (``at (p) async S``)."""
        return self.runtime.spawn(fn, *args, **kwargs)

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------
    def _loop(self, name: str, body: Callable[[], None], interval: float) -> None:
        # The body runs once immediately: a site that lives for less
        # than one interval still publishes (and checks) at least once,
        # instead of being invisible to the cluster for its whole life.
        publishing = name == "publisher"
        while True:
            try:
                body()
            except StoreUnavailableError:
                # Fault tolerance: skip the round, try again next period.
                if publishing:
                    self.publish_failures += 1
                    self._m_publishes.inc(site=self.site_id, outcome="failure")
                else:
                    self.check_failures += 1
            except Exception as exc:
                # Anything else kills this loop thread.  From the
                # caller's perspective the site would just go silent —
                # record the failure where it can be observed (error
                # slot + failure metric + log) before re-raising.
                self.loop_errors[name] = exc
                if publishing:
                    self._m_publishes.inc(site=self.site_id, outcome="error")
                log.exception(
                    "site %s: %s loop died (the site is no longer %s)",
                    self.site_id, name,
                    "publishing" if publishing else "checking",
                )
                raise
            if self._stop.wait(interval):
                return

    def _publish_once(self) -> None:
        """Diff the runtime's blocked set against the last committed
        publication; append only the change.

        ``prepare``/``commit`` straddle the store write: an outage
        leaves the publisher state untouched (the change re-derives
        next round), and a sequence gap — the store lost our tail, e.g.
        failover onto a recovered-stale replica — is healed by forcing
        a full snapshot checkpoint.
        """
        start = self.tracer.next_ordinal() if self.tracer.enabled else 0
        snapshot = self.runtime.checker.dependency.snapshot()
        bucket = encode_bucket(snapshot.statuses)
        delta = self.publisher.prepare(bucket)
        if delta is None:
            self._m_publishes.inc(site=self.site_id, outcome="noop")
            return  # nothing changed: nothing crosses the wire
        outcome = "checkpoint" if delta["kind"] == "snapshot" else "delta"
        try:
            self.store.append_delta(self.site_id, delta)
        except DeltaSequenceError:
            delta = self.publisher.prepare_checkpoint(bucket)
            self.store.append_delta(self.site_id, delta)
            outcome = "gap_checkpoint"
        self.publisher.commit(delta)
        if self.tracer.enabled:
            self.tracer.complete(
                "site.publish", f"site:{self.site_id}", start,
                cat="publish", outcome=outcome, seq=delta["seq"],
                stream=delta["stream"],
            )
        self._m_publishes.inc(site=self.site_id, outcome=outcome)
        if delta["kind"] == "delta":
            self._m_delta_ops.observe(
                len(delta["set"]) + len(delta["clear"]),
                site=self.site_id,
            )

    def _check_once(self) -> None:
        self._m_check_rounds.inc(site=self.site_id)
        start = self.tracer.next_ordinal() if self.tracer.enabled else 0
        report = self.checker.check_global()
        if self.tracer.enabled:
            self.tracer.complete(
                "site.check", f"site:{self.site_id}", start, cat="check",
                deadlocked=report is not None,
            )
        if report is None:
            return
        # Keyed on the task set, not ``report.cycle_key``: here a new key
        # also triggers ``_cancel_local``, and ``Task.cancel`` delivery
        # is one-shot — a bystander that blocks onto a deadlock already
        # reported must still get its own report, or it waits forever.
        key = frozenset(report.tasks)
        if key in self._seen_cycles:
            return
        self._seen_cycles.add(key)
        self.reports.append(report)
        if self.on_deadlock is not None:
            self.on_deadlock(report)
        if self.cancel_on_detect:
            self._cancel_local(report)

    def _cancel_local(self, report: DeadlockReport) -> None:
        for task_id in report.tasks:
            task = self.runtime.task_by_id(task_id)
            if task is not None and task.runtime is self.runtime:
                task.cancel(report)

    # ------------------------------------------------------------------
    def poll_detection(self) -> Optional[DeadlockReport]:
        """Run one synchronous publish+check round (tests, benches)."""
        self._publish_once()
        before = len(self.reports)
        self._check_once()
        return self.reports[-1] if len(self.reports) > before else None
