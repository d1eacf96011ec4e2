"""The happens-before model predictions reorder against.

Deadlock prediction asks: *could* these block records all have been
pending at once, under some reordering of the recorded run?  The
answer is sound only relative to a happens-before partial order — a
reordering may permute concurrent events freely but must preserve every
HB edge.  This module builds that order from one pass over the record
stream, as vector clocks:

* **Program order.**  Every record is attributed to an acting task
  (``block``/``unblock``/``register``/``advance`` carry it directly;
  the per-task ops inside ``publish_delta`` payloads are
  attributed to the task whose status they set or clear — the
  publish→sync leg: a published status is causally after everything its
  task did, wherever the publishing site sits in the stream).  A task's
  records are totally ordered.
* **Release order.**  A barrier wait completes only because other
  registered tasks arrived: the ``unblock`` that ends a wait on phaser
  ``p`` happens-after every ``advance`` on ``p`` seen so far.  This is
  deliberately conservative (it joins *all* phases of ``p``, not just
  the satisfying one): extra HB edges can only suppress predictions,
  never unsound ones, and it is exactly what excludes cross-round
  barrier "cycles" — round ``r`` exists only because round ``r-1``
  completed, so statuses from different rounds are never concurrent.

What the model deliberately does **not** order: records of different
tasks that merely share a site's publish stream.  A delta stream
records the order a site *observed* status changes, not causality
between distinct tasks; serialising them would silence every
distributed near-miss.  Any resulting optimism is caught downstream —
every candidate's witness must be confirmed by a real replay before it
is reported (see :mod:`repro.predict.engine`).

Clocks are sparse dicts keyed by task.  The standard vector-clock fact
makes concurrency checks O(1): an event *e* of task *t* happens-before
event *f* iff ``clock(f)[t] >= clock(e)[t]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.events import BlockedStatus
from repro.trace.events import RecordKind, Trace, TraceRecord, status_from_obj


@dataclass
class TaskEvent:
    """One HB-relevant event attributed to a task.

    ``tick`` is the task's own program-order counter at the event (the
    task's component of its clock); ``seq`` the originating record's
    trace ordinal.  Published status events additionally carry the
    site/stream coordinates for provenance.
    """

    task: str
    tick: int
    seq: int
    kind: str
    status: Optional[BlockedStatus] = None
    phaser: Optional[str] = None
    phase: Optional[int] = None
    site: Optional[str] = None
    stream: Optional[str] = None
    stream_seq: Optional[int] = None


@dataclass
class HBModel:
    """The finished model: per-task event lists plus helper queries."""

    #: task -> its HB-relevant events, in program order.
    events: Dict[str, List[TaskEvent]] = field(default_factory=dict)
    #: Number of records folded in (the scan's accounting).
    records_seen: int = 0

    def tasks(self) -> List[str]:
        """All acting tasks, in canonical (string-sorted) order."""
        return sorted(self.events, key=str)


class _Builder:
    """Single-pass fold of a record stream into clocks and events."""

    def __init__(self) -> None:
        self.model = HBModel()
        #: task -> sparse vector clock (task -> tick).
        self.clocks: Dict[str, Dict[str, int]] = {}
        #: phaser -> join of every advancing task's clock at its advance.
        self.advances: Dict[str, Dict[str, int]] = {}
        #: task -> the waits of its currently-open block (release join).
        self.open_waits: Dict[str, frozenset] = {}
        #: task -> currently-published status (dedups republications).
        self.current: Dict[str, BlockedStatus] = {}
        #: site -> tasks its bucket currently carries (snapshot diffing).
        self.site_tasks: Dict[str, set] = {}

    def _tick(self, task: str) -> Tuple[Dict[str, int], int]:
        clock = self.clocks.setdefault(task, {})
        tick = clock.get(task, 0) + 1
        clock[task] = tick
        return clock, tick

    def _event(self, task: str, seq: int, kind: str, **extra) -> TaskEvent:
        _, tick = self._tick(task)
        event = TaskEvent(task=task, tick=tick, seq=seq, kind=kind, **extra)
        self.model.events.setdefault(task, []).append(event)
        return event

    def _join(self, into: Dict[str, int], other: Dict[str, int]) -> None:
        for key, value in other.items():
            if into.get(key, 0) < value:
                into[key] = value

    # -- extension points (the candidate extractor snapshots clocks) ---
    def _on_block(self, event: TaskEvent, clock: Dict[str, int]) -> None:
        """Called after a block event, with the task's live clock."""

    def _on_unblock(self, task: str, seq: int, tick: int) -> None:
        """Called after an unblock event (release joins applied)."""

    # -- the per-semantic-event folds ----------------------------------
    def block(self, task: str, seq: int, status: BlockedStatus,
              site: Optional[str] = None, stream: Optional[str] = None,
              stream_seq: Optional[int] = None) -> None:
        # Re-publication of an unchanged status (a snapshot checkpoint
        # re-listing its bucket) is not a new block event.
        if self.current.get(task) == status:
            return
        self.current[task] = status
        event = self._event(task, seq, "block", status=status, site=site,
                            stream=stream, stream_seq=stream_seq)
        self.open_waits[task] = status.waits
        self._on_block(event, self.clocks[task])

    def unblock(self, task: str, seq: int) -> None:
        if task not in self.current:
            return
        del self.current[task]
        clock, tick = self._tick(task)
        waits = self.open_waits.pop(task, frozenset())
        for event in waits:
            adv = self.advances.get(str(event.phaser))
            if adv:
                self._join(clock, adv)
        self.model.events.setdefault(task, []).append(
            TaskEvent(task=task, tick=tick, seq=seq, kind="unblock")
        )
        self._on_unblock(task, seq, tick)

    def advance(self, task: str, seq: int, phaser: str,
                phase: Optional[int] = None) -> None:
        self._event(task, seq, "advance", phaser=phaser, phase=phase)
        self._join(self.advances.setdefault(phaser, {}), self.clocks[task])

    def register(self, task: str, seq: int, phaser: Optional[str] = None,
                 phase: Optional[int] = None) -> None:
        self._event(task, seq, "register", phaser=phaser, phase=phase)

    # -- record dispatch -----------------------------------------------
    def observe(self, rec: TraceRecord) -> None:
        self.model.records_seen += 1
        kind = rec.kind
        if kind is RecordKind.BLOCK:
            self.block(str(rec.task), rec.seq, rec.status)
        elif kind is RecordKind.UNBLOCK:
            self.unblock(str(rec.task), rec.seq)
        elif kind is RecordKind.ADVANCE:
            self.advance(str(rec.task), rec.seq, str(rec.phaser), rec.phase)
        elif kind is RecordKind.REGISTER:
            self.register(str(rec.task), rec.seq, str(rec.phaser), rec.phase)
        elif kind is RecordKind.PUBLISH_DELTA:
            self._observe_delta(rec)

    def _observe_delta(self, rec: TraceRecord) -> None:
        payload = rec.payload
        site, stream = str(rec.site), str(payload["stream"])
        stream_seq = int(payload["seq"])
        owned = self.site_tasks.setdefault(rec.site, set())
        if payload["kind"] == "snapshot":
            listed = set(payload["set"])
            for task in sorted(owned - listed, key=str):
                self.unblock(str(task), rec.seq)
            self.site_tasks[rec.site] = listed
        else:
            for task in sorted(payload["clear"], key=str):
                self.unblock(str(task), rec.seq)
                owned.discard(task)
            owned.update(payload["set"])
        for task in sorted(payload["set"], key=str):
            self.block(
                str(task), rec.seq, status_from_obj(payload["set"][task]),
                site=site, stream=stream, stream_seq=stream_seq,
            )


def build_hb_model(source: Iterable[TraceRecord]) -> HBModel:
    """Fold a record stream (or :class:`~repro.trace.events.Trace`)
    into an :class:`HBModel` plus the per-block clocks the candidate
    extractor reads (see :mod:`repro.predict.candidates`, which drives
    the same builder and keeps the clocks)."""
    records = source.records if isinstance(source, Trace) else source
    builder = _Builder()
    for rec in records:
        builder.observe(rec)
    return builder.model


__all__ = ["HBModel", "TaskEvent", "build_hb_model"]
