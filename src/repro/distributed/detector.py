"""The one-phase distributed detection algorithm (Section 5.2), delta-fed.

Armus's two changes to Kshemkalyani & Singhal's one-phase algorithm:

1. logical clocks (phaser events) instead of vector clocks — barrier
   synchronisation gives a natural per-resource total order, so no
   vector-timestamp machinery is needed to keep the global view
   consistent: each task's blocked status is self-contained;
2. no designated control site — the global status lives in a dedicated
   (fault-tolerant) store and *all* sites check, so detection survives
   any site failure.

:class:`DistributedChecker` is the per-site checking half.  Under the
delta protocol it no longer re-merges the whole global view each round:
it polls every site's delta stream from its cursor, feeds the decoded
ops into a maintained :class:`~repro.core.incremental.IncrementalChecker`
through a :class:`~repro.distributed.delta.DeltaMergeState`, and asks
the maintained graph — O(change) to sync, O(1) to answer while acyclic.
A sequence gap (compacted log, restarted stream, stale replica) makes
the checker *request a checkpoint*: one ``get_state`` read resyncs that
site's slice of the view.  A deadlock spanning sites appears as a cycle
exactly as a local one would, because event names are global, and the
reports are byte-identical to a from-scratch check of the merged store
states (the cyclic-path fallback rebuilds from the same merged,
same-ordered snapshot).
"""

from __future__ import annotations

from typing import Optional

from repro.core.incremental import IncrementalChecker
from repro.core.report import DeadlockReport
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaMergeState, DeltaSequenceError
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER


class DistributedChecker:
    """The checking half of a site: delta streams -> maintained view.

    ``check_global`` first syncs — reads each live site's new deltas
    (resyncing from a checkpoint on any gap) and drops sites whose
    streams were withdrawn — then queries the maintained incremental
    checker.  Store outages surface as exceptions for the caller (the
    site's checking loop) to tolerate — the algorithm's fault-tolerance
    is *continuing to run*, not pretending the read succeeded.
    """

    def __init__(
        self,
        store,
        model: GraphModel = GraphModel.AUTO,
        metrics=None,
        tracer=None,
    ) -> None:
        self.store = store
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.checker = IncrementalChecker(model=model, metrics=metrics)
        # The view is the checker's snapshot source: the rare
        # cyclic-path fallback sees the site-ordered merge.
        self.view = DeltaMergeState(self.checker)
        #: Checkpoint resyncs performed (gap recovery accounting).
        self.resyncs = 0
        if metrics is None:
            metrics = NULL_REGISTRY
        self.metrics = metrics
        syncs = metrics.counter(
            "repro_distributed_sync_total",
            "Delta-stream sync work per global check round: rounds "
            "run, delta entries applied, checkpoint resyncs, sites "
            "dropped.",
            labels=("event",), volatile=True,
        )
        self._m_sync_rounds = syncs.labels(event="rounds")
        self._m_sync_deltas = syncs.labels(event="deltas_applied")
        self._m_sync_resyncs = syncs.labels(event="resyncs")
        self._m_sync_drops = syncs.labels(event="sites_dropped")
        self._m_sync_lag = metrics.histogram(
            "repro_distributed_sync_lag",
            "Delta entries a site's stream had queued when the checker "
            "polled it (how far behind each round found itself).",
            volatile=True,
        )

    def sync(self) -> None:
        """Pull every site's new deltas into the maintained view.

        O(change) per round: only appended deltas cross the wire, and
        only their ops touch the checker.  Gaps — compacted logs,
        restarted streams, stale replicas — fall back to one
        ``get_state`` checkpoint read for that site.
        """
        self._m_sync_rounds.inc()
        live = self.store.delta_sites()
        live_set = set(live)
        for site in [s for s in self.view.sites() if s not in live_set]:
            self.view.drop_site(site)
            self._m_sync_drops.inc()
        for site in live:
            cursor = self.view.cursor(site)
            try:
                if cursor is None:
                    deltas = self.store.get_deltas(site, 0)
                else:
                    deltas = self.store.get_deltas(site, cursor[1], cursor[0])
                self._m_sync_lag.observe(len(deltas))
                if deltas:
                    self._m_sync_deltas.inc(len(deltas))
                # One batch window for the whole backlog: a polled
                # stream with several queued deltas feeds the checker
                # through a single apply_batch.
                with self.view.batched():
                    for obj in deltas:
                        self.view.apply_obj(site, obj)
            except DeltaSequenceError:
                self._resync(site)

    def _resync(self, site: str) -> None:
        """Checkpoint recovery: replace the site's slice of the view."""
        try:
            stream, seq, state = self.store.get_state(site)
        except DeltaSequenceError:
            # The stream vanished between the listing and the read.
            self.view.drop_site(site)
            self._m_sync_drops.inc()
            return
        self.view.reset_site(site, stream, seq, state)
        self.resyncs += 1
        self._m_sync_resyncs.inc()

    def check_global(self) -> Optional[DeadlockReport]:
        """One detection pass over the published global state."""
        start = self.tracer.next_ordinal() if self.tracer.enabled else 0
        self.sync()
        if self.tracer.enabled:
            self.tracer.complete("checker.sync", "checker", start, cat="sync")
        self.view.raise_on_conflict()
        report = self.checker.check()
        if report is not None and self.tracer.enabled:
            self.tracer.event(
                "deadlock.report", "checker", cat="report",
                cycle=" -> ".join(str(v) for v in report.cycle),
                model=report.model_used.value,
            )
        return report

    @property
    def stats(self):
        return self.checker.stats
