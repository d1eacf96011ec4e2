"""Canonical identifier renaming: compare traces across processes.

Task ids (``T42``), resource ids (``phaser#17``) and site names are
minted from process-global counters, so two recordings of the *same*
scenario — a threaded run and an asyncio run, or two CI jobs — differ
textually even when they are record-for-record identical.
:func:`canonical_trace` rewrites every identifier to its order of first
appearance (``t0, t1, ...`` / ``r0, r1, ...`` / ``s0, s1, ...``),
walking records in stream order and each record's fields in a fixed
order, so that behaviourally identical traces become *byte*-identical
under either codec.

This is what the backend-equivalence tests golden-diff: the thread and
aio drivers of one scenario must normalise to the same bytes, and their
replays must report the same deadlock.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, Tuple

from repro.core.events import BlockedStatus, Event
from repro.distributed.delta import PROTOCOL_VERSION
from repro.trace import events as ev
from repro.trace.events import RecordKind, Trace, TraceHeader, TraceRecord

_DIGITS = re.compile(r"(\d+)")


def _natural_key(name) -> Tuple:
    """Order identifiers with digit runs compared numerically.

    When one record introduces several unseen identifiers at once
    (a multi-resource status, a publish payload), their discovery order
    must not depend on the *offset* of the process-global counters that
    minted them: under a plain string sort ``phaser#10 < phaser#9`` but
    ``phaser#2 < phaser#3``, so two behaviourally identical runs could
    normalise differently.  Numeric comparison of the counter suffixes
    (``9 < 10``) preserves mint order whatever the offset.
    """
    parts = _DIGITS.split(str(name))
    return tuple(int(p) if p.isdigit() else p for p in parts)


class _Renamer:
    """First-appearance renaming for one identifier namespace."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._names: Dict[str, str] = {}

    def __call__(self, name) -> str:
        key = str(name)
        mapped = self._names.get(key)
        if mapped is None:
            mapped = f"{self.prefix}{len(self._names)}"
            self._names[key] = mapped
        return mapped


def _canonical_status(status: BlockedStatus, task, resource) -> BlockedStatus:
    # Discover names deterministically: registered then waits, each in
    # natural-sorted original order (neither set/dict iteration order
    # nor counter offsets may leak into the assignment).
    registered = {
        resource(rid): phase
        for rid, phase in sorted(
            status.registered.items(), key=lambda kv: _natural_key(kv[0])
        )
    }
    waits = frozenset(
        Event(resource(e.phaser), e.phase)
        for e in sorted(status.waits, key=lambda e: (_natural_key(e.phaser), e.phase))
    )
    return BlockedStatus(waits=waits, registered=registered)


def _canonical_payload(payload: Mapping, task, resource) -> Dict[str, dict]:
    # Delta sections carry *encoded* statuses (the store wire format).
    out: Dict[str, dict] = {}
    for task_id, blob in sorted(payload.items(), key=lambda kv: _natural_key(kv[0])):
        out[task(task_id)] = {
            "waits": sorted(
                [resource(p), n]
                for p, n in sorted(
                    blob["waits"], key=lambda w: (_natural_key(w[0]), w[1])
                )
            ),
            "registered": {
                resource(p): n
                for p, n in sorted(
                    blob["registered"].items(), key=lambda kv: _natural_key(kv[0])
                )
            },
        }
    return out


def canonical_trace(trace: Trace) -> Trace:
    """``trace`` with every task/resource/site renamed to canonical,
    first-appearance identifiers (``t0``/``r0``/``s0`` ...).

    Record order, kinds, seqs, phases and the header are preserved; only
    names change.  The assignment is invariant to both spelling and
    counter offset: names are discovered in stream order, and several
    names first appearing in one record are ordered by
    :func:`_natural_key` (digit runs compared numerically), so
    ``phaser#9``/``phaser#10`` in one run and ``phaser#2``/``phaser#3``
    in another — the same mint order, different counter bases — receive
    the same canonical ids.  Record-for-record identical runs therefore
    serialise to identical canonical bytes.
    """
    task = _Renamer("t")
    resource = _Renamer("r")
    site = _Renamer("s")
    # Stream (publisher-incarnation) tokens are minted randomly per
    # live run, so they get their own canonical namespace.
    stream = _Renamer("c")
    records = []
    for rec in trace.records:
        kind = rec.kind
        if kind is RecordKind.BLOCK:
            records.append(
                ev.block(
                    rec.seq,
                    task(rec.task),
                    _canonical_status(rec.status, task, resource),
                )
            )
        elif kind is RecordKind.UNBLOCK:
            records.append(ev.unblock(rec.seq, task(rec.task)))
        elif kind in (RecordKind.REGISTER, RecordKind.ADVANCE):
            make = ev.register if kind is RecordKind.REGISTER else ev.advance
            records.append(
                make(rec.seq, task(rec.task), resource(rec.phaser), rec.phase)
            )
        else:  # PUBLISH_DELTA
            delta = rec.payload
            # Walk the delta's sections in a fixed order (set, then
            # clear) so identifier discovery cannot depend on payload
            # spelling; seq/kind/v are structural and pass through.
            records.append(
                ev.publish_delta(
                    rec.seq,
                    site(rec.site),
                    {
                        "v": delta.get("v", PROTOCOL_VERSION),
                        "stream": stream(delta["stream"]),
                        "seq": delta["seq"],
                        "kind": delta["kind"],
                        "set": _canonical_payload(delta["set"], task, resource),
                        "clear": [
                            task(t)
                            for t in sorted(delta["clear"], key=_natural_key)
                        ],
                    },
                )
            )
    header = TraceHeader(meta=dict(trace.header.meta))
    return Trace(header=header, records=tuple(records))
