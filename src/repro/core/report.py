"""Deadlock reports and exceptions raised by the two verification modes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple

from repro.core.events import Event, TaskId
from repro.core.selection import GraphModel


class RecordOrigin(NamedTuple):
    """Where one analysed status came from, in trace-record terms.

    ``ordinal`` is the trace record's own sequence number — the offset a
    reader can seek to — which makes origins deterministic across
    processes and hash seeds (unlike wall clock).  Distributed statuses
    additionally carry the publishing ``site`` and, under the delta
    protocol, the ``stream`` incarnation token and per-stream ``seq``.

    A tuple, like :class:`EdgeProvenance`: a report carries one pair of
    them per cycle edge, built by the service and again by the client
    that decodes it, and interned by hash on the way to the wire.
    """

    ordinal: int
    kind: str = "block"
    site: Optional[str] = None
    stream: Optional[str] = None
    seq: Optional[int] = None

    def describe(self) -> str:
        """One-line rendering (``block @record 9`` / publish variants)."""
        text = f"{self.kind} @record {self.ordinal}"
        details = []
        if self.site is not None:
            details.append(f"site {self.site}")
        if self.stream is not None:
            details.append(f"stream {self.stream}")
        if self.seq is not None:
            details.append(f"seq {self.seq}")
        if details:
            text += " (" + ", ".join(details) + ")"
        return text


class EdgeProvenance(NamedTuple):
    """One cycle edge mapped back to its originating records.

    ``source``/``target`` are the cycle's own vertices (tasks in a WFG
    cycle, events in an SG cycle); ``source_task``/``target_task`` name
    the task each endpoint is attributed to (the vertex itself for WFG,
    the minimal waiting task for an SG event vertex), and the two
    origins point at the records that published those tasks' statuses
    into the analysed view.
    """

    source: str
    target: str
    source_task: str
    target_task: str
    source_origin: RecordOrigin
    target_origin: RecordOrigin


@dataclass(frozen=True)
class DeadlockReport:
    """Evidence of a (potential or avoided) deadlock.

    Attributes
    ----------
    tasks:
        The deadlocked task set (vertices of the WFG cycle, or the tasks
        contributing the SG cycle's edges).
    events:
        The synchronisation events involved (SG cycle vertices, or the
        events the ``tasks`` wait on).
    cycle:
        The concrete cycle found, as a closed vertex walk in whichever
        graph model was analysed.
    model_used:
        The graph model the cycle was found in.
    edge_count:
        Size of the analysed graph, for diagnostics and Table 3 accounting.
    avoided:
        True when the report was produced by avoidance mode (the deadlock
        never materialised).
    provenance:
        Optional per-edge origin mapping (replay engines attach it; live
        checks leave it ``None``).  One entry per consecutive pair of
        ``cycle``, in cycle order.
    detection_lag:
        Optional record-ordinal distance from the record that closed the
        cycle to the check that reported it (0 = reported at the closing
        record itself).
    detected_at:
        Optional ordinal of the last record consumed before the
        reporting check ran (``detected_at - detection_lag`` is the
        closing record's ordinal).
    """

    tasks: Tuple[TaskId, ...]
    events: Tuple[Event, ...]
    cycle: Tuple[object, ...]
    model_used: GraphModel
    edge_count: int
    avoided: bool = False
    provenance: Optional[Tuple[EdgeProvenance, ...]] = None
    detection_lag: Optional[int] = None
    detected_at: Optional[int] = None

    @property
    def cycle_key(self) -> frozenset:
        """What makes two reports the same deadlock: the cycle's vertex
        set.  ``tasks`` is the wrong key — under SG it lists every
        blocked task awaiting a cycle event, so it grows as bystanders
        pile onto a persisting deadlock while the cycle itself is
        stable.  One deadlock, one report."""
        return frozenset(self.cycle)

    def without_provenance(self) -> "DeadlockReport":
        """This report with the replay-attached provenance fields
        cleared — the live-run form, for comparisons between live and
        replayed analyses of the same execution."""
        if (
            self.provenance is None
            and self.detection_lag is None
            and self.detected_at is None
        ):
            return self
        return replace(
            self, provenance=None, detection_lag=None, detected_at=None
        )

    def describe(self) -> str:
        """Human-readable multi-line description (the tool's user report)."""
        kind = "avoided" if self.avoided else "detected"
        lines = [
            f"barrier deadlock {kind} ({self.model_used.value.upper()} cycle, "
            f"{len(self.tasks)} task(s), {self.edge_count} edge(s))",
            "  tasks: " + ", ".join(str(t) for t in self.tasks),
            "  events: " + ", ".join(str(e) for e in self.events),
            "  cycle: " + " -> ".join(str(v) for v in self.cycle),
        ]
        return "\n".join(lines)


class DeadlockError(RuntimeError):
    """Base class for deadlock verification errors."""

    def __init__(self, report: DeadlockReport, message: Optional[str] = None):
        super().__init__(message or report.describe())
        self.report = report


class DeadlockDetectedError(DeadlockError):
    """Raised into blocked tasks cancelled by the detection monitor."""


class DeadlockAvoidedError(DeadlockError):
    """Raised by avoidance mode instead of entering a deadlocked wait.

    The paper: "Armus checks for deadlocks before the task blocks and
    interrupts the blocking operation with an exception if the deadlock is
    found. The programmer can treat the exceptional situation to develop
    applications resilient to deadlocks."
    """
