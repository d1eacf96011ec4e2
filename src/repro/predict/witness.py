"""Sound reordering constructor: candidate -> concrete witness trace.

A candidate (see :mod:`repro.predict.candidates`) claims some
HB-consistent reordering of the recorded run leaves its tasks all
blocked in a wait-for cycle.  This module *builds* that reordering as
an ordinary v3 trace, so the claim can be checked by the real engine
instead of trusted.

Construction: for each candidate task, take the task's own event
prefix up to and including the chosen block (its program order — which
by the HB model's publish→sync leg includes status ops a site published
on its behalf), then interleave the prefixes by original record order
and re-sequence from zero.  Because every cross-task HB edge in the
model points *into an unblock* (release edges) and each prefix ends at
a block, the prefix set is downward-closed under happens-before: the
witness is a legal reordering, not just a record soup.

Published status ops are re-emitted as plain local ``block``/
``unblock`` records.  Local and distributed folds are already pinned
equivalent by the corpus suite, and a witness must stand alone — a
reconstructed delta stream would have sequence gaps the decoder
rightly rejects.

The output is a pure function of (trace bytes, candidate): header meta,
record order and sequencing are all deterministic, so witness files are
byte-stable across runs, workers and hash seeds.
"""

from __future__ import annotations

from typing import List, Tuple

import repro.trace.events as ev
from repro.predict.candidates import Candidate
from repro.predict.hb import HBModel, TaskEvent
from repro.trace.events import Trace, TraceHeader, TraceRecord


def _task_prefix(model: HBModel, task: str, open_seq: int) -> List[TaskEvent]:
    """The task's events up to and including the block at ``open_seq``."""
    events = model.events.get(task, [])
    for idx, event in enumerate(events):
        if event.kind == "block" and event.seq == open_seq:
            return events[: idx + 1]
    raise ValueError(
        f"candidate interval has no block event: task={task!r} seq={open_seq}"
    )


def _emit(event: TaskEvent, seq: int) -> TraceRecord:
    if event.kind == "block":
        return ev.block(seq, event.task, event.status)
    if event.kind == "unblock":
        return ev.unblock(seq, event.task)
    if event.kind == "advance":
        return ev.advance(seq, event.task, event.phaser, event.phase or 0)
    if event.kind == "register":
        return ev.register(seq, event.task, event.phaser, event.phase or 0)
    raise ValueError(f"unexpected event kind in witness: {event.kind!r}")


def build_witness(
    trace: Trace, model: HBModel, candidate: Candidate, index: int = 0
) -> Trace:
    """The reordered trace realising ``candidate``, ending with every
    candidate task blocked on its cycle status."""
    merged: List[Tuple[int, str, int, TaskEvent]] = []
    for interval in candidate.intervals:
        prefix = _task_prefix(model, interval.task, interval.open_seq)
        for pos, event in enumerate(prefix):
            merged.append((event.seq, str(event.task), pos, event))
    merged.sort(key=lambda item: item[:3])
    records = [_emit(event, seq) for seq, (_, _, _, event) in enumerate(merged)]
    source_meta = trace.header.meta or {}
    meta = {
        "generator": "repro.predict",
        "kind": "witness",
        "candidate": index,
        "tasks": sorted(candidate.tasks, key=str),
        "open_records": sorted(iv.open_seq for iv in candidate.intervals),
        "expect_deadlock": True,
    }
    for key in ("scenario", "family"):
        if key in source_meta:
            meta[f"source_{key}"] = source_meta[key]
    return Trace(header=TraceHeader(meta=meta), records=records)


__all__ = ["build_witness"]
