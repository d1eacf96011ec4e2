"""Membership-based constraint tracking — the pre-Armus baseline (ablation D1).

State-of-the-art tools before Armus (Umpire/MUST lineage, Section 7) track
the *status of each blocked operation* to derive dependencies: for every
barrier they maintain the participant set and the arrival status of each
participant, and a blocked task waits for the participants that have not
arrived.  This requires bookkeeping on **every** registration change and
arrival — a global property that is expensive to maintain, and the reason
those tools do not support dynamic membership well (Section 2.1).

Armus' event-based representation only publishes *local* information at
block time.  This module implements the membership baseline so the
difference in bookkeeping traffic can be measured
(``python -m repro.bench.tables ablations``); its WFG agrees with the
event-based WFG on barrier-structured workloads, which the test suite
checks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.core.events import PhaserId, TaskId
from repro.core.graphs import DiGraph


@dataclass
class _BarrierRecord:
    """Global bookkeeping for one barrier: members and arrival status."""

    members: Set[TaskId] = field(default_factory=set)
    arrived: Set[TaskId] = field(default_factory=set)
    phase: int = 0


class MembershipTracker:
    """Global membership/arrival bookkeeping (the baseline representation).

    Every mutation method counts one bookkeeping operation; the event-based
    representation performs work only in ``block``/``unblock``.  The
    ``ops`` counter is the quantity compared in the ablation bench.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._barriers: Dict[PhaserId, _BarrierRecord] = {}
        self._blocked: Dict[TaskId, PhaserId] = {}
        self.ops = 0

    # -- membership maintenance (the expensive global bookkeeping) -------
    def create(self, barrier: PhaserId) -> None:
        with self._lock:
            self.ops += 1
            self._barriers[barrier] = _BarrierRecord()

    def register(self, barrier: PhaserId, task: TaskId) -> None:
        with self._lock:
            self.ops += 1
            self._barriers[barrier].members.add(task)

    def deregister(self, barrier: PhaserId, task: TaskId) -> None:
        with self._lock:
            self.ops += 1
            rec = self._barriers[barrier]
            rec.members.discard(task)
            rec.arrived.discard(task)
            self._maybe_release(barrier, rec)

    def arrive(self, barrier: PhaserId, task: TaskId) -> None:
        with self._lock:
            self.ops += 1
            rec = self._barriers[barrier]
            if task not in rec.members:
                raise ValueError(f"{task!r} not a member of {barrier!r}")
            rec.arrived.add(task)
            self._maybe_release(barrier, rec)

    def _maybe_release(self, barrier: PhaserId, rec: _BarrierRecord) -> None:
        """Complete the synchronisation when every member has arrived.

        This is exactly the 'recreating a significant part of the actual
        synchronisation protocol' the paper criticises (Section 2.1).
        """
        if rec.members and rec.arrived >= rec.members:
            rec.arrived.clear()
            rec.phase += 1
            for t, b in list(self._blocked.items()):
                if b == barrier:
                    del self._blocked[t]

    # -- blocked-task tracking -------------------------------------------
    def block(self, task: TaskId, barrier: PhaserId) -> None:
        with self._lock:
            self.ops += 1
            self._blocked[task] = barrier

    def unblock(self, task: TaskId) -> None:
        with self._lock:
            self.ops += 1
            self._blocked.pop(task, None)

    # -- analysis ----------------------------------------------------------
    def wfg(self) -> DiGraph:
        """Wait-For Graph: blocked task -> member that has not arrived."""
        with self._lock:
            g = DiGraph()
            for t, barrier in self._blocked.items():
                g.add_vertex(t)
                rec = self._barriers.get(barrier)
                if rec is None:
                    continue
                for member in rec.members:
                    if member != t and member not in rec.arrived:
                        g.add_edge(t, member)
            return g

    def blocked_count(self) -> int:
        with self._lock:
            return len(self._blocked)
