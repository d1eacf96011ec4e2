"""Near-miss candidates: block-record sets that could cycle.

A *blocked interval* is one contiguous stretch of a task being blocked
with one status — opened by a ``block`` record (or a published status
op), closed by the matching ``unblock``/``clear`` (or superseded by a
re-publication with a different status; trailing intervals stay open).
Each interval carries the task's vector clock at the block and the
closing event's own-component tick (see :mod:`repro.predict.hb`).

A **candidate** is a set of intervals, one per task, such that

1. the statuses close a wait-for cycle — interval ``i`` waits on an
   event that interval ``i+1``'s status impedes (the Armus relation:
   registered on the phaser below the awaited phase), and
2. every pair of intervals is HB-concurrent: neither interval's close
   happens-before the other's open, so some HB-consistent reordering of
   the run has them all pending at once.

Condition 2 is the vector-clock check made O(1) per pair: the close of
interval ``x`` (an event of ``x.task``) happens-before the open of
``y`` iff ``y``'s block clock has seen ``x.task`` up to the closing
tick.  Intervals that never close constrain nothing.

Enumeration is exhaustive up to explicit, deterministic caps (cycle
length, candidate count, DFS steps) — the caps are surfaced as a
``truncated`` flag, never silently.  Cycles are emitted in canonical
orientation (starting at the lexicographically minimal interval), in a
DFS order that is a pure function of the interval list, so downstream
output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.events import BlockedStatus
from repro.core.report import RecordOrigin
from repro.predict.hb import HBModel, TaskEvent, _Builder
from repro.trace.events import Trace, TraceRecord

#: Default enumeration caps (deterministic; surfaced via ``truncated``).
MAX_CYCLE_LEN = 32
MAX_CANDIDATES = 64
MAX_STEPS = 200_000


@dataclass
class BlockInterval:
    """One contiguous blocked stretch of one task."""

    task: str
    status: BlockedStatus
    open_seq: int
    kind: str = "block"
    site: Optional[str] = None
    stream: Optional[str] = None
    stream_seq: Optional[int] = None
    close_seq: Optional[int] = None
    #: The task's vector clock at the opening block.
    block_clock: Dict[str, int] = field(default_factory=dict)
    #: Own-component tick of the closing event (None = never closed).
    close_tick: Optional[int] = None

    def origin(self) -> RecordOrigin:
        """The opening record as provenance (same shape replay attaches)."""
        return RecordOrigin(
            ordinal=self.open_seq, kind=self.kind, site=self.site,
            stream=self.stream, seq=self.stream_seq,
        )


def concurrent(x: BlockInterval, y: BlockInterval) -> bool:
    """Whether some HB-consistent reordering has both intervals pending
    at once (neither close happens-before the other's open)."""
    if x.close_tick is not None and y.block_clock.get(x.task, 0) >= x.close_tick:
        return False
    if y.close_tick is not None and x.block_clock.get(y.task, 0) >= y.close_tick:
        return False
    return True


@dataclass(frozen=True)
class Candidate:
    """One enumerated near-miss: intervals in cycle order (interval
    ``i``'s wait is impeded by interval ``i+1``'s status, wrapping)."""

    intervals: Tuple[BlockInterval, ...]

    @property
    def tasks(self) -> Tuple[str, ...]:
        return tuple(iv.task for iv in self.intervals)

    @property
    def key(self) -> frozenset:
        """Identity for de-duplication: the (task, open record) set."""
        return frozenset((iv.task, iv.open_seq) for iv in self.intervals)


class _IntervalBuilder(_Builder):
    """The HB builder, additionally materialising blocked intervals."""

    def __init__(self) -> None:
        super().__init__()
        self.intervals: List[BlockInterval] = []
        self._open_intervals: Dict[str, BlockInterval] = {}

    def _on_block(self, event: TaskEvent, clock: Dict[str, int]) -> None:
        # A new status while one is open supersedes it: the task moved
        # on, so the old interval closes at this (same-task) event.
        stale = self._open_intervals.get(event.task)
        if stale is not None:
            stale.close_seq, stale.close_tick = event.seq, event.tick
        kind = "block" if event.stream is None else "publish_delta"
        interval = BlockInterval(
            task=event.task, status=event.status, open_seq=event.seq,
            kind=kind, site=event.site, stream=event.stream,
            stream_seq=event.stream_seq, block_clock=dict(clock),
        )
        self._open_intervals[event.task] = interval
        self.intervals.append(interval)

    def _on_unblock(self, task: str, seq: int, tick: int) -> None:
        interval = self._open_intervals.pop(task, None)
        if interval is not None:
            interval.close_seq, interval.close_tick = seq, tick


def extract_intervals(
    source: Iterable[TraceRecord],
) -> Tuple[HBModel, List[BlockInterval]]:
    """One pass over the records: the HB model plus every blocked
    interval, in opening order."""
    records = source.records if isinstance(source, Trace) else source
    builder = _IntervalBuilder()
    for rec in records:
        builder.observe(rec)
    return builder.model, builder.intervals


def _build_edges(
    intervals: List[BlockInterval],
) -> List[List[int]]:
    """Adjacency: ``i -> j`` iff ``j``'s status impedes one of ``i``'s
    waits, the tasks differ, and the intervals are HB-concurrent."""
    by_phaser: Dict[str, List[Tuple[int, int]]] = {}
    for j, interval in enumerate(intervals):
        for phaser, phase in interval.status.registered.items():
            by_phaser.setdefault(str(phaser), []).append((phase, j))
    edges: List[List[int]] = [[] for _ in intervals]
    for i, interval in enumerate(intervals):
        out = set()
        for event in interval.status.waits:
            for phase, j in by_phaser.get(str(event.phaser), ()):
                if phase >= event.phase or j == i or j in out:
                    continue
                other = intervals[j]
                if other.task == interval.task:
                    continue
                if concurrent(interval, other):
                    out.add(j)
        edges[i] = sorted(out)
    return edges


def enumerate_candidates(
    intervals: List[BlockInterval],
    max_cycle_len: int = MAX_CYCLE_LEN,
    max_candidates: int = MAX_CANDIDATES,
    max_steps: int = MAX_STEPS,
) -> Tuple[List[Candidate], bool]:
    """All wait-for cycles over HB-concurrent intervals, one per task.

    Returns ``(candidates, truncated)``; ``truncated`` is True when a
    cap cut the enumeration short (deterministically — the DFS order is
    fixed, so the same prefix is found every run).
    """
    order = sorted(
        range(len(intervals)),
        key=lambda i: (intervals[i].open_seq, str(intervals[i].task)),
    )
    rank = {idx: pos for pos, idx in enumerate(order)}
    edges = _build_edges(intervals)
    candidates: List[Candidate] = []
    seen_keys = set()
    steps = 0
    truncated = False

    def dfs(start: int, path: List[int]) -> bool:
        """Extend ``path`` (a simple impedes-chain from ``start``);
        returns False when a cap fired and enumeration must stop."""
        nonlocal steps, truncated
        head = path[-1]
        for nxt in edges[head]:
            steps += 1
            if steps > max_steps or len(candidates) >= max_candidates:
                truncated = True
                return False
            if nxt == start and len(path) >= 2:
                cycle = Candidate(
                    intervals=tuple(intervals[i] for i in path)
                )
                if cycle.key not in seen_keys:
                    seen_keys.add(cycle.key)
                    candidates.append(cycle)
                continue
            # Canonical orientation: only the minimal-rank node starts a
            # cycle, and paths never revisit a task.
            if rank[nxt] <= rank[start] or len(path) >= max_cycle_len:
                continue
            if any(intervals[i].task == intervals[nxt].task for i in path):
                continue
            if not all(
                concurrent(intervals[i], intervals[nxt]) for i in path
            ):
                continue
            path.append(nxt)
            ok = dfs(start, path)
            path.pop()
            if not ok:
                return False
        return True

    for start in order:
        if not edges[start]:
            continue
        if not dfs(start, [start]):
            break
    return candidates, truncated


__all__ = [
    "BlockInterval",
    "Candidate",
    "concurrent",
    "enumerate_candidates",
    "extract_intervals",
]
