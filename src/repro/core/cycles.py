"""Cycle detection on concurrency-constraint graphs.

Deadlock analysis reduces to cycle detection (Section 4): a cycle in the
WFG (equivalently the SG, Theorem 4.8) of a resource-dependency state
witnesses a deadlocked task set.  We use an iterative Tarjan strongly-
connected-components algorithm — O(V + E), Proposition 4.2 — and extract a
concrete cycle from any non-trivial SCC for reporting.

All algorithms are iterative (explicit stacks): verification runs inside
user programs whose graphs can be deep, and CPython's recursion limit must
not constrain them.

Cycle *extraction* is canonical: among all cyclic SCCs the one holding
the globally minimal vertex (by string key) is chosen, the witness cycle
is grown by BFS over string-sorted successors, and the closed walk is
rotated to start at its minimal vertex.  The SCC partition itself is
order-independent, so two processes — regardless of hash seed, set
iteration order or Python version — extract the *same* cycle from the
same graph.  That is what lets both engines and multi-process replay merge
reports byte-identically (see ``repro.trace.parallel``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Set

from repro.core.graphs import DiGraph

Vertex = Hashable


def strongly_connected_components(graph: DiGraph) -> List[List[Vertex]]:
    """Tarjan's SCC algorithm, iterative formulation.

    Returns the components in reverse topological order (Tarjan's natural
    output order).  Each component is a list of vertices.
    """
    index_of: Dict[Vertex, int] = {}
    lowlink: Dict[Vertex, int] = {}
    on_stack: Dict[Vertex, bool] = {}
    stack: List[Vertex] = []
    components: List[List[Vertex]] = []
    counter = 0
    adj = graph.adj  # every vertex is a key: ``add_edge`` adds both ends

    for root in list(adj):
        if root in index_of:
            continue
        # Each frame is (vertex, iterator over successors).
        work: List[tuple] = [(root, iter(adj[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack.get(w) and index_of[w] < lowlink[v]:
                    lowlink[v] = index_of[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index_of[v]:
                component: List[Vertex] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def has_cycle(graph: DiGraph) -> bool:
    """Whether the graph contains any directed cycle.

    A graph is cyclic iff it has an SCC with more than one vertex, or a
    vertex with a self-loop.
    """
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            return True
        v = component[0]
        if graph.has_edge(v, v):
            return True
    return False


def _vertex_key(v: Vertex) -> str:
    """The canonical vertex sort key (``str`` is stable across processes
    for both task-id and ``Event`` vertices, unlike ``hash``)."""
    return str(v)


class _VertexKeys(dict):
    """``vertex -> _vertex_key(vertex)``, filled on first lookup.

    One extraction compares a vertex many times — SCC minimum,
    successor order, rotation — and ``str`` of an event is a Python
    call; an extraction makes one of these and pays the call once per
    vertex.  Never kept past the extraction: keys follow a vertex's
    ``str``, not its identity.
    """

    __slots__ = ()

    def __missing__(self, v: Vertex) -> str:
        key = self[v] = _vertex_key(v)
        return key


def canonical_rotation(cycle: List[Vertex], key=_vertex_key) -> List[Vertex]:
    """Rotate the closed walk ``[v1, ..., vk, v1]`` to start (and close)
    at its minimal vertex by :func:`_vertex_key`.

    Rotation preserves the walk's edges and direction, so the result is
    the same cycle — just in the one representative form every process
    agrees on.
    """
    if len(cycle) < 2:
        return list(cycle)
    body = cycle[:-1]
    keys = [key(v) for v in body]
    pivot = keys.index(min(keys))
    rotated = body[pivot:] + body[:pivot]
    rotated.append(rotated[0])
    return rotated


def canonical_cyclic_scc(graph: DiGraph, key):
    """The canonical cyclic SCC choice: ``(entry, members)`` for the
    cyclic SCC holding the globally minimal vertex, or ``None``.

    The one selection rule behind every canonical extraction: the
    maintained-partition :meth:`~repro.core.scc.DynamicSCC.extract_cycle`
    extracts through :func:`find_cycle` too, so the two paths cannot
    drift (the byte-identical-reports guarantee rests on them choosing
    the same SCC by the same rule).  ``key`` is the extraction's
    :class:`_VertexKeys` lookup.
    """
    entry: Optional[Vertex] = None
    entry_key: Optional[str] = None
    members: Optional[Set[Vertex]] = None
    for component in strongly_connected_components(graph):
        if len(component) == 1:
            v = component[0]
            if not graph.has_edge(v, v):
                continue  # acyclic: never keyed at all
        else:
            v = min(component, key=key)
        v_key = key(v)
        if entry_key is None or v_key < entry_key:
            entry, entry_key = v, v_key
            members = set(component)
    if entry is None or members is None:
        return None
    return entry, members


def find_cycle(graph: DiGraph) -> Optional[List[Vertex]]:
    """A concrete cycle ``[v1, ..., vk, v1]`` if one exists, else ``None``.

    Canonical: the cyclic SCC containing the globally minimal vertex is
    selected (the SCC partition is unique, so this choice is independent
    of traversal order), and the returned walk starts at that vertex.
    """
    key = _VertexKeys().__getitem__
    chosen = canonical_cyclic_scc(graph, key)
    if chosen is None:
        return None
    entry, members = chosen
    return canonical_rotation(
        _cycle_containing(graph, members, entry, key), key
    )


def cycle_through(graph: DiGraph, vertex: Vertex) -> Optional[List[Vertex]]:
    """A cycle containing ``vertex`` if one exists, else ``None``.

    Used by avoidance mode to confirm the blocking task itself is on the
    cycle it is about to complete.  Within a cyclic SCC, strong
    connectivity guarantees every member lies on some cycle.
    """
    if vertex not in graph.adj:
        return None
    for component in strongly_connected_components(graph):
        if vertex not in component:
            continue
        if len(component) == 1 and not graph.has_edge(vertex, vertex):
            return None
        key = _VertexKeys().__getitem__
        return canonical_rotation(
            _cycle_containing(graph, set(component), vertex, key), key
        )
    return None


def cycle_reachable_from(
    graph: DiGraph, vertex: Vertex
) -> Optional[List[Vertex]]:
    """A cycle reachable from ``vertex`` (possibly not through it).

    This is the exact shape of Theorem 4.15 (completeness): a deadlocked
    task reaches a ``t'``-cycle in the WFG, but need not lie on it.
    """
    if vertex not in graph.adj:
        return None
    reachable = graph.subgraph_reachable_from(vertex)
    return find_cycle(reachable)


def _canonical_successors(graph: DiGraph, v: Vertex, key):
    """``v``'s successors in canonical order; at most one has only one."""
    successors = graph.successors(v)
    if len(successors) > 1:
        return sorted(successors, key=key)
    return successors


def _cycle_containing(
    graph: DiGraph, members: Set[Vertex], v: Vertex, key
) -> List[Vertex]:
    """A cycle through ``v`` inside the cyclic SCC ``members``.

    BFS from the successors of ``v`` (restricted to the SCC) back to ``v``;
    strong connectivity guarantees the search succeeds.  Successors are
    visited in canonical (string-key) order so the breadth-first parent
    tree — hence the extracted cycle — does not depend on set iteration
    order.
    """
    if graph.has_edge(v, v):
        return [v, v]
    parent: Dict[Vertex, Vertex] = {}
    queue: deque[Vertex] = deque()
    for w in _canonical_successors(graph, v, key):
        if w in members and w not in parent:
            parent[w] = v
            queue.append(w)
    while queue:
        u = queue.popleft()
        for w in _canonical_successors(graph, u, key):
            if w == v:
                # Reconstruct v ... u, then close the cycle at v.
                path = [u]
                while path[-1] != v:
                    path.append(parent[path[-1]])
                path.reverse()
                path.append(v)
                return path
            if w in members and w not in parent:
                parent[w] = u
                queue.append(w)
    raise AssertionError(
        "cyclic SCC must contain a cycle through each member"
    )  # pragma: no cover


def is_walk(graph: DiGraph, walk: Sequence[Vertex]) -> bool:
    """Whether ``walk`` is a walk on ``graph`` (used by theorem tests)."""
    if len(walk) < 2:
        return False
    return all(graph.has_edge(u, v) for u, v in zip(walk, walk[1:]))


def is_cycle(graph: DiGraph, walk: Sequence[Vertex]) -> bool:
    """Whether ``walk`` is a cycle on ``graph`` (closed walk)."""
    return is_walk(graph, walk) and walk[0] == walk[-1]
