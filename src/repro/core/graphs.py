"""Graph models of concurrency constraints (Definitions 4.2-4.4).

Three directed graphs can be read out of a resource-dependency state:

* the **General Resource Graph** (GRG, Holt 1972): bipartite over tasks and
  events; ``t -> e`` when task ``t`` waits on event ``e`` and ``e -> t``
  when ``t`` impedes ``e``;
* the **Wait-For Graph** (WFG, Knapp 1987): tasks only; ``t1 -> t2`` when
  ``t1`` waits on an event impeded by ``t2`` — the edge contraction of the
  GRG over events;
* the **State Graph** (SG, Coffman et al. 1971): events only;
  ``e1 -> e2`` when some task impeded *by* ``e1``'s non-arrival ... more
  precisely, when there is a task ``t`` with ``t in I(e1)`` and
  ``e2 in W(t)`` — the edge contraction of the GRG over tasks.

Theorem 4.8 proves the WFG has a cycle iff the SG has one, so either model
may be used for detection; they differ (dramatically, Section 6.3) in size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

from repro.core.dependency import DependencySnapshot
from repro.core.events import Event, TaskId

Vertex = Hashable


@dataclass
class DiGraph:
    """A minimal directed graph: adjacency sets over hashable vertices.

    Deliberately tiny — the paper uses JGraphT; everything the checker
    needs is vertex/edge insertion, iteration, and successor lookup.
    """

    adj: Dict[Vertex, Set[Vertex]] = field(default_factory=dict)

    def add_vertex(self, v: Vertex) -> None:
        self.adj.setdefault(v, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set())

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self.adj.get(u, ())

    def successors(self, v: Vertex) -> Set[Vertex]:
        return self.adj.get(v, set())

    @property
    def vertices(self) -> Iterable[Vertex]:
        return self.adj.keys()

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        for u, targets in self.adj.items():
            for v in targets:
                yield (u, v)

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(len(t) for t in self.adj.values())

    def out_degree(self, v: Vertex) -> int:
        return len(self.adj.get(v, ()))

    def in_degree(self, v: Vertex) -> int:
        return sum(1 for t in self.adj.values() if v in t)

    def subgraph_reachable_from(self, source: Vertex) -> "DiGraph":
        """The sub-digraph induced by vertices reachable from ``source``."""
        if source not in self.adj:
            return DiGraph()
        seen: Set[Vertex] = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        out = DiGraph()
        for u in seen:
            out.add_vertex(u)
            for v in self.adj[u]:
                if v in seen:
                    out.add_edge(u, v)
        return out

    def is_subgraph_of(self, other: "DiGraph") -> bool:
        """Subgraph relation used by the completeness proof (Lemma 4.14)."""
        for u in self.adj:
            if u not in other.adj:
                return False
            if not self.adj[u] <= other.adj[u]:
                return False
        return True


def build_wfg(snapshot: DependencySnapshot) -> DiGraph:
    """Wait-For Graph (Definition 4.2): ``(t1, t2)`` iff ``t1`` waits on
    some event that ``t2`` impedes.

    Complexity is O(B + E_wfg) where B is the total number of (phaser,
    blocked-task) registrations — the phaser index avoids rescanning all
    tasks per awaited event.
    """
    g = DiGraph()
    index = snapshot.phaser_index()
    for t1, status in snapshot.statuses.items():
        g.add_vertex(t1)
        for event in status.waits:
            for t2, phase in index.get(event.phaser, ()):
                if phase < event.phase:
                    g.add_edge(t1, t2)
    return g


def iter_sg_edges(status, awaited_index) -> Iterator[Tuple[Event, Event]]:
    """One blocked task's SG edge group: ``{impeded e1} x {waited e2}``.

    ``awaited_index`` is :meth:`DependencySnapshot.awaited_index`; the
    candidate events per registration are looked up there instead of
    scanning every awaited event, and the impedes test
    (:meth:`~repro.core.events.BlockedStatus.impedes`) keeps
    Definition 4.1's ``I`` map in one place.  Shared by
    :func:`build_sg` and the adaptive builder's incremental attempt
    (:func:`repro.core.selection._try_build_sg`).
    """
    for phaser in status.registered:
        for e1 in awaited_index.get(phaser, ()):
            if status.impedes(e1):
                for e2 in status.waits:
                    yield e1, e2


def build_sg(snapshot: DependencySnapshot) -> DiGraph:
    """State Graph (Definition 4.3): ``(e1, e2)`` iff some task ``t``
    impedes ``e1`` and waits on ``e2``.

    Vertices are the awaited events.  A blocked task contributes the edges
    ``{impeded e1} x {waited e2}``.
    """
    g = DiGraph()
    awaited = snapshot.awaited_index()
    for events in awaited.values():
        for e in events:
            g.add_vertex(e)
    for status in snapshot.statuses.values():
        for e1, e2 in iter_sg_edges(status, awaited):
            g.add_edge(e1, e2)
    return g


def build_grg(snapshot: DependencySnapshot) -> DiGraph:
    """General Resource Graph (Definition 4.4): the bipartite task/event
    graph that bridges the WFG and the SG in the equivalence proof.

    Tasks and events are keys of one ``adj``.  An
    :class:`~repro.core.events.Event` equals no task id, the tuple of
    its own fields included, so the graph stays bipartite whatever the
    tasks are named."""
    g = DiGraph()
    awaited = snapshot.awaited_events
    for t, status in snapshot.statuses.items():
        g.add_vertex(t)
        for e in status.waits:
            g.add_edge(t, e)
        for e in status.impeded_events(awaited):
            g.add_edge(e, t)
    return g


def wfg_from_grg(grg: DiGraph) -> DiGraph:
    """Contract a GRG over events to obtain the WFG (Lemma 4.5).

    Provided for testing the equivalence theorem: a walk ``t1 r t2`` in the
    GRG corresponds to the WFG edge ``(t1, t2)``.
    """
    g = DiGraph()
    for u in grg.vertices:
        if isinstance(u, Event):
            continue
        g.add_vertex(u)
        for mid in grg.successors(u):
            for v in grg.successors(mid):
                if not isinstance(v, Event):
                    g.add_edge(u, v)
    return g


def sg_from_grg(grg: DiGraph) -> DiGraph:
    """Contract a GRG over tasks to obtain the SG (Lemma 4.6)."""
    g = DiGraph()
    for u in grg.vertices:
        if not isinstance(u, Event):
            continue
        g.add_vertex(u)
        for mid in grg.successors(u):
            for v in grg.successors(mid):
                if isinstance(v, Event):
                    g.add_edge(u, v)
    return g
