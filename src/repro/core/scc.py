"""Incrementally maintained cycle/SCC structure for delta-fed graphs.

The from-scratch checker answers every query by rebuilding the analysis
graph and running Tarjan — O(edges) per check.  :class:`DynamicSCC`
answers the same "is there a cycle?" question against a *mutating* edge
set, paying only for what changed:

* **Insertions** maintain a Pearce-Kelly pseudo-topological order
  [Pearce & Kelly 2006]: an edge ``u -> v`` that respects the current
  order (``ord(u) < ord(v)``) is O(1); an order-violating edge triggers
  a search bounded to the *affected region* — the vertices whose order
  lies between ``v`` and ``u`` — which either finds a path ``v ->* u``
  (a cycle: record it, stop ordering that component) or reorders just
  the region.  Sound because a valid topological order certifies
  acyclicity, and a cycle through the new edge needs a ``v ->* u``
  path, which the bounded search cannot miss.
* **Rent, then buy.**  Between two queries a component pays
  Pearce-Kelly per violating edge until its charged visits exceed its
  member count, then defers to one scoped Tarjan at the next query: per
  component and span, a constant factor over the cheaper of the two,
  with no window for a caller to open.
* **Deletions** never create cycles and never invalidate a topological
  order, so deleting from an *acyclic* component is O(degree).  Only a
  deletion touching a component whose verdict is (or may be) *cyclic*
  schedules work: the component is marked **dirty** and lazily
  recomputed — scoped Tarjan over that component's members alone —
  at the next query.
* **Weak components** are tracked by a union-find over component
  *labels* (merge by relabelling the smaller half — amortised
  O(log n) per vertex over any union sequence) with a per-label
  mutation **epoch**.  Union-find cannot split, so after deletions a
  label's member set over-approximates the true weak component; that is
  sound (it only widens the scope of a dirty recompute, which
  re-partitions the members and prunes the over-approximation).
  Labels are fresh integers, never vertex names, so a vertex that
  leaves and later re-enters the graph — the normal life of a task
  that unblocks and blocks again — can never collide with stale
  bookkeeping.  Epochs let callers cache per-component results ("this
  component has not changed since I last extracted a cycle").

Beyond existence, :meth:`DynamicSCC.extract_cycle` extracts the
*canonical* witness cycle from the maintained partition: only the
cyclic components' members are touched (a scoped Tarjan plus the
canonical BFS of :mod:`repro.core.cycles`), and the per-component
extraction is cached against the component's mutation epoch — a
persisting deadlock polled while *other* components churn re-extracts
nothing.  The result is exactly
``find_cycle(self.to_digraph())`` — same SCC choice (globally minimal
vertex), same BFS order, same rotation — at O(cyclic component) instead
of O(graph).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.cycles import (
    _vertex_key,
    find_cycle,
    strongly_connected_components,
)
from repro.core.graphs import DiGraph

Vertex = Hashable


class DynamicSCC:
    """A mutable digraph with an incrementally maintained cycle verdict.

    All operations are idempotent where that is meaningful (re-adding an
    existing edge or vertex is a no-op) and the caller is expected to
    hold whatever lock protects the surrounding state — the structure
    itself is not thread-safe.
    """

    def __init__(self) -> None:
        self._out: Dict[Vertex, Set[Vertex]] = {}
        self._in: Dict[Vertex, Set[Vertex]] = {}
        # Pearce-Kelly order: unique ints, a valid topological order
        # within every acyclic component (garbage within cyclic ones).
        self._ord: Dict[Vertex, int] = {}
        self._next_ord = 0
        # Weak-component tracking: live vertex -> label, label -> members.
        self._label: Dict[Vertex, int] = {}
        self._members: Dict[int, Set[Vertex]] = {}
        self._next_label = 0
        self._cyclic: Set[int] = set()  # labels with a known cycle
        self._dirty: Set[int] = set()  # labels needing scoped recompute
        self._epoch: Dict[int, int] = {}  # label -> last-mutation epoch
        self._mutations = 0
        self._edge_count = 0
        # Per-component extraction cache: label -> (epoch, cycle).
        self._cycle_cache: Dict[int, Tuple[int, Tuple[Vertex, ...]]] = {}
        #: Scoped extractions actually computed (cache misses) — lets
        #: tests assert the epoch cache is doing its job.
        self.extractions = 0
        #: Vertices visited by Pearce-Kelly discovery searches (forward
        #: plus backward frontiers) — the maintenance work an insertion
        #: sequence actually paid, mirrored into ``repro.obs`` counters.
        self.pk_visits = 0
        #: Scoped recomputes run for dirty components (a deletion from a
        #: cyclic one, a component over budget since the last query).
        self.resolves = 0
        # label -> Pearce-Kelly visits charged since the last query.
        self._charge: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def vertex_count(self) -> int:
        return len(self._out)

    @property
    def mutation_epoch(self) -> int:
        """Global mutation counter (bumped by every state change)."""
        return self._mutations

    def __contains__(self, v: Vertex) -> bool:
        return v in self._out

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self._out.get(u, ())

    def epoch_of(self, v: Vertex) -> int:
        """Epoch of the last mutation touching ``v``'s component."""
        return self._epoch[self._label[v]]

    def component_of(self, v: Vertex) -> frozenset:
        """The (possibly over-approximated) weak component holding ``v``."""
        return frozenset(self._members[self._label[v]])

    # ------------------------------------------------------------------
    # component labels (union by relabelling the smaller half)
    # ------------------------------------------------------------------
    def _union(self, la: int, lb: int) -> int:
        """Merge labels ``la`` and ``lb``; the larger member set keeps
        its label, flags and epochs carry to the survivor."""
        if la == lb:
            return la
        if len(self._members[la]) < len(self._members[lb]):
            la, lb = lb, la
        moved = self._members.pop(lb)
        for w in moved:
            self._label[w] = la
        self._members[la].update(moved)
        if lb in self._cyclic:
            self._cyclic.discard(lb)
            self._cyclic.add(la)
        if lb in self._dirty:
            self._dirty.discard(lb)
            self._dirty.add(la)
        if lb in self._charge:
            self._charge[la] = self._charge.get(la, 0) + self._charge.pop(lb)
        self._epoch[la] = max(self._epoch[la], self._epoch.pop(lb))
        return la

    def _fresh_label(self, v: Vertex) -> int:
        label = self._next_label
        self._next_label += 1
        self._label[v] = label
        self._members[label] = {v}
        self._epoch[label] = self._mutations
        return label

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        if v in self._out:
            return
        self._mutations += 1
        self._out[v] = set()
        self._in[v] = set()
        self._ord[v] = self._next_ord
        self._next_ord += 1
        self._fresh_label(v)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._out[u]:
            return
        self._mutations += 1
        self._out[u].add(v)
        self._in[v].add(u)
        self._edge_count += 1
        label = self._union(self._label[u], self._label[v])
        self._epoch[label] = self._mutations
        if label in self._cyclic or label in self._dirty:
            # Known cyclic stays cyclic; unknown stays unknown — the
            # next dirty recompute sees this edge anyway.
            return
        if u == v:
            self._cyclic.add(label)
            return
        lb, ub = self._ord[v], self._ord[u]
        if ub < lb:
            return  # order-respecting edge: provably no new cycle
        # Rent, then buy: keep paying Pearce-Kelly per edge until the
        # visits charged to this component since the last query exceed
        # its member count — what the one scoped Tarjan at the next
        # query costs — and only then mark it unknown.  Sound because
        # unions are still eager: any cycle through this edge lies
        # wholly inside this component, which a dirty recompute sees
        # whole.
        spent = self._charge.get(label, 0)
        if spent > len(self._members[label]):
            self._dirty.add(label)
            return
        before = self.pk_visits
        self._pk_insert(u, v, lb, ub, label)
        self._charge[label] = spent + self.pk_visits - before

    def _pk_insert(self, u: Vertex, v: Vertex, lb: int, ub: int, label: int) -> None:
        """Pearce-Kelly discovery + reorder for an order-violating edge."""
        # Forward from v, bounded to ord < ord(u); reaching u is a cycle.
        fwd: List[Vertex] = []
        stack = [v]
        seen = {v}
        while stack:
            w = stack.pop()
            fwd.append(w)
            for x in self._out[w]:
                if x == u:
                    self._cyclic.add(label)
                    self.pk_visits += len(fwd)
                    return
                if x not in seen and self._ord[x] < ub:
                    seen.add(x)
                    stack.append(x)
        # Backward from u, bounded to ord > ord(v).  Disjoint from fwd:
        # an overlap would be a v ->* u path, caught above.
        bwd: List[Vertex] = []
        stack = [u]
        seen_b = {u}
        while stack:
            w = stack.pop()
            bwd.append(w)
            for x in self._in[w]:
                if x not in seen_b and self._ord[x] > lb:
                    seen_b.add(x)
                    stack.append(x)
        # Reorder the affected region: everything reaching u first, then
        # everything reachable from v, reusing the same order slots.
        region = sorted(bwd, key=self._ord.__getitem__)
        region += sorted(fwd, key=self._ord.__getitem__)
        slots = sorted(self._ord[w] for w in region)
        for w, slot in zip(region, slots):
            self._ord[w] = slot
        self.pk_visits += len(region)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        if v not in self._out.get(u, ()):
            return
        self._mutations += 1
        self._out[u].discard(v)
        self._in[v].discard(u)
        self._edge_count -= 1
        label = self._label[u]
        self._epoch[label] = self._mutations
        if label in self._cyclic or label in self._dirty:
            # The deleted edge may have carried the cycle: downgrade the
            # verdict to unknown; the next query recomputes, scoped.
            self._cyclic.discard(label)
            self._dirty.add(label)
        # Acyclic components stay acyclic under deletion, and the
        # topological order stays valid — nothing else to do.

    def remove_vertex(self, v: Vertex) -> None:
        if v not in self._out:
            return
        for x in list(self._out[v]):
            self.remove_edge(v, x)
        for x in list(self._in[v]):
            self.remove_edge(x, v)
        self._mutations += 1
        label = self._label.pop(v)
        members = self._members[label]
        members.discard(v)
        self._epoch[label] = self._mutations
        del self._out[v], self._in[v], self._ord[v]
        if not members:
            del self._members[label]
            del self._epoch[label]
            self._charge.pop(label, None)
            self._cyclic.discard(label)
            self._dirty.discard(label)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_cycle(self) -> bool:
        """Whether any component currently contains a directed cycle.

        The query every extraction and check goes through, so it is
        also where the rent-then-buy charges start again from zero.
        """
        if self._dirty:
            for label in list(self._dirty):
                self._resolve(label)
        self._charge.clear()
        return bool(self._cyclic)

    def to_digraph(self) -> DiGraph:
        """Materialise the current edge set (tests and fallbacks)."""
        return self._subgraph(self._out)

    def _subgraph(self, vertices) -> DiGraph:
        """``vertices`` with every out-edge they have: a component's
        induced subgraph when they are its members, since every edge
        stays inside its component."""
        g = DiGraph()
        for w in vertices:
            g.add_vertex(w)
            for x in self._out[w]:
                g.add_edge(w, x)
        return g

    def cyclic_components(self) -> List[frozenset]:
        """Member sets of every cyclic component (dirty ones resolved)."""
        self.has_cycle()
        return [frozenset(self._members[label]) for label in self._cyclic]

    def extract_cycle(self) -> Optional[List[Vertex]]:
        """The canonical witness cycle, from the maintained partition.

        Equals ``find_cycle(self.to_digraph())`` — the cyclic SCC
        holding the globally minimal vertex, grown by canonical BFS,
        rotated to its minimal vertex — but touches only the members of
        components whose verdict is cyclic, and caches each component's
        extraction against its mutation epoch: re-polling a stable
        deadlock while unrelated components mutate re-extracts nothing.
        """
        if not self.has_cycle():
            return None
        best: Optional[Tuple[str, Tuple[Vertex, ...]]] = None
        for label in self._cyclic:
            cycle = self._component_cycle(label)
            key = _vertex_key(cycle[0])
            if best is None or key < best[0]:
                best = (key, cycle)
        # Prune cache entries of labels that stopped being cyclic (or
        # died): the cache only ever holds currently-cyclic components.
        if len(self._cycle_cache) > len(self._cyclic):
            self._cycle_cache = {
                label: entry
                for label, entry in self._cycle_cache.items()
                if label in self._cyclic
            }
        assert best is not None
        return list(best[1])

    def _component_cycle(self, label: int) -> Tuple[Vertex, ...]:
        """Canonical cycle of one cyclic component, epoch-cached.

        Every edge stays inside its component (unions happen on every
        insertion), so the scoped subgraph contains every SCC of the
        component's members and the per-component minimal-vertex choice
        composes into the global one.
        """
        epoch = self._epoch[label]
        cached = self._cycle_cache.get(label)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        self.extractions += 1
        found = find_cycle(self._subgraph(self._members[label]))
        assert found is not None, "cyclic label without a cyclic SCC"
        cycle = tuple(found)
        self._cycle_cache[label] = (epoch, cycle)
        return cycle

    def check_valid(self) -> None:
        """Invariant check used by the property tests: the maintained
        verdict must agree with a from-scratch Tarjan run."""
        actual = False
        for component in strongly_connected_components(self.to_digraph()):
            v = component[0]
            if len(component) > 1 or self.has_edge(v, v):
                actual = True
                break
        assert self.has_cycle() == actual, "DynamicSCC verdict diverged"

    # ------------------------------------------------------------------
    # scoped recompute
    # ------------------------------------------------------------------
    def _resolve(self, label: int) -> None:
        """Recompute verdict and partition for a dirty label's members.

        This is the "scoped recompute only for the affected component"
        path: re-partition the (over-approximated) member set into true
        weak components, run Tarjan over the induced subgraph, and
        reassign fresh topological orders so later insertions resume the
        cheap Pearce-Kelly path.
        """
        members = self._members.pop(label, set())
        self._dirty.discard(label)
        self._cyclic.discard(label)
        self._epoch.pop(label, None)
        if not members:
            return
        self.resolves += 1
        for w in members:
            self._fresh_label(w)
        for w in members:
            for x in self._out[w]:
                self._union(self._label[w], self._label[x])
        sub = self._subgraph(members)
        components = strongly_connected_components(sub)
        # Tarjan emits SCCs in reverse topological order; walking the
        # list backwards therefore yields a valid topological order over
        # the resolved vertices — exactly what the PK order needs.
        for component in reversed(components):
            if len(component) > 1 or sub.has_edge(component[0], component[0]):
                self._cyclic.add(self._label[component[0]])
            for w in component:
                self._ord[w] = self._next_ord
                self._next_ord += 1

    # Kept for benchmarks/e2e/layers.py, their only caller: a query
    # ends the span maintenance is priced over, so these do nothing.
    def begin_batch(self) -> None:
        pass

    def end_batch(self) -> None:
        pass


# Kept for benchmarks/e2e/layers.py, its only caller.
make_dynamic_scc = DynamicSCC
