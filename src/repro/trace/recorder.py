"""`TraceRecorder`: capture a live run as a replayable trace.

The recorder is the write side of the trace subsystem.  It is attached
to the observation points of the existing layers with one constructor
flag each:

* ``ArmusRuntime(recorder=...)`` — every ``block_entry`` /
  ``block_exit`` (and the phaser register/arrive context hooks) appends
  a record;
* ``InMemoryStore(recorder=...)`` / ``ReplicatedStore(recorder=...)`` —
  every accepted delta append adds a ``publish_delta`` record;
* ``Interpreter(recorder=...)`` — the PL interpreter records the
  blocked-set diffs of its ``phi(S)`` publications;
* ``Site(recorder=...)`` / ``Cluster(recorder=...)`` — forward the
  recorder to their runtime(s) and store.

Recording is deliberately dumb: append-only, one lock, no I/O until
:meth:`TraceRecorder.save`.  The overhead on the instrumented path is a
dataclass construction and a list append — small enough to record runs
whose verification is OFF (record now, verify offline later), which is
the trace subsystem's whole point.

For runs too long to buffer, :class:`~repro.trace.stream.StreamingRecorder`
swaps the list for the output file: it overrides :meth:`TraceRecorder._append`
— the single sink every ``record_*`` method funnels through — to encode
and write each record as it arrives, keeping memory O(1).

Task, phaser and site identifiers are coerced to ``str`` at record time
so that in-memory traces equal their decoded round-trips.

The recorder is backend-neutral by construction: both wait drivers
(threaded :func:`~repro.runtime.observer.verified_wait` and asyncio
:func:`~repro.aio.observer.averified_wait`) route through the same
runtime hooks, so an asyncio run records the same versioned format —
compare recordings across backends with
:func:`~repro.trace.normalize.canonical_trace`.
"""

from __future__ import annotations

import threading
from typing import List, Mapping, Optional

from repro.core.events import BlockedStatus
from repro.trace import events as ev
from repro.trace.codec import save_trace


class TraceRecorder:
    """Thread-safe, append-only collector of trace records.

    Parameters
    ----------
    meta:
        Free-form metadata stored in the trace header (scenario name,
        recording mode, expected verdict, ...).
    """

    def __init__(self, meta: Optional[Mapping[str, object]] = None) -> None:
        self.meta: dict = dict(meta or {})
        self._lock = threading.Lock()
        self._records: List[ev.TraceRecord] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # observation points
    # ------------------------------------------------------------------
    def _append(self, make) -> ev.TraceRecord:
        # The one overridable sink: subclasses that stream records
        # elsewhere replace this method and inherit every record_* hook.
        with self._lock:
            rec = make(self._seq)
            self._seq += 1
            self._records.append(rec)
            return rec

    def record_block(self, task, status: BlockedStatus) -> ev.TraceRecord:
        """``task`` is about to block with ``status``."""
        return self._append(lambda seq: ev.block(seq, str(task), status))

    def record_unblock(self, task) -> ev.TraceRecord:
        """``task`` stopped waiting."""
        return self._append(lambda seq: ev.unblock(seq, str(task)))

    def record_register(self, task, phaser, phase: int) -> ev.TraceRecord:
        """``task`` registered with ``phaser`` at local ``phase``."""
        return self._append(lambda seq: ev.register(seq, str(task), str(phaser), phase))

    def record_advance(self, task, phaser, phase: int) -> ev.TraceRecord:
        """``task`` arrived at ``phaser``, reaching local ``phase``."""
        return self._append(lambda seq: ev.advance(seq, str(task), str(phaser), phase))

    def record_publish_delta(self, site, payload: Mapping) -> ev.TraceRecord:
        """``site`` appended the delta wire object ``payload`` to its
        stream in the global store (the delta-protocol write)."""
        return self._append(lambda seq: ev.publish_delta(seq, str(site), payload))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def trace(self) -> ev.Trace:
        """A consistent snapshot of everything recorded so far."""
        with self._lock:
            records = tuple(self._records)
        return ev.Trace(
            header=ev.TraceHeader(version=ev.TRACE_VERSION, meta=dict(self.meta)),
            records=records,
        )

    def save(self, path, codec: Optional[str] = None):
        """Snapshot and write to ``path`` (codec inferred from extension)."""
        return save_trace(self.trace(), path, codec=codec)

    def clear(self) -> None:
        """Drop everything recorded so far (the seq counter keeps going)."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
