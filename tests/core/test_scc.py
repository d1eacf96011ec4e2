"""DynamicSCC: incremental cycle maintenance under insert/delete churn."""

from __future__ import annotations

import random
import time
from itertools import islice

import pytest

from repro.core.cycles import find_cycle, strongly_connected_components
from repro.core.scc import DynamicSCC


def edges_of(pairs) -> DynamicSCC:
    """Build a DynamicSCC from an edge iterable."""
    scc = DynamicSCC()
    for u, v in pairs:
        scc.add_edge(u, v)
    return scc


class TestBasics:
    def test_empty_has_no_cycle(self):
        assert not DynamicSCC().has_cycle()

    def test_path_is_acyclic(self):
        scc = edges_of([(1, 2), (2, 3), (3, 4)])
        assert not scc.has_cycle()
        assert scc.edge_count == 3
        assert scc.vertex_count == 4

    def test_closing_edge_creates_cycle(self):
        scc = edges_of([(1, 2), (2, 3)])
        assert not scc.has_cycle()
        scc.add_edge(3, 1)
        assert scc.has_cycle()

    def test_self_loop_is_a_cycle(self):
        scc = DynamicSCC()
        scc.add_edge("t", "t")
        assert scc.has_cycle()

    def test_duplicate_edges_and_vertices_are_idempotent(self):
        scc = DynamicSCC()
        scc.add_edge(1, 2)
        scc.add_edge(1, 2)
        scc.add_vertex(1)
        assert scc.edge_count == 1

    def test_remove_edge_breaks_the_cycle(self):
        scc = edges_of([(1, 2), (2, 1)])
        assert scc.has_cycle()
        scc.remove_edge(2, 1)
        assert not scc.has_cycle()

    def test_remove_vertex_breaks_the_cycle(self):
        scc = edges_of([(1, 2), (2, 3), (3, 1)])
        assert scc.has_cycle()
        scc.remove_vertex(2)
        assert not scc.has_cycle()
        assert scc.edge_count == 1  # only 3 -> 1 survives

    def test_one_cycle_among_many_components(self):
        scc = edges_of([(1, 2), (3, 4), (5, 6), (6, 5), (7, 8)])
        assert scc.has_cycle()
        components = scc.cyclic_components()
        assert components == [frozenset({5, 6})]

    def test_vertex_readded_after_removal_is_fresh(self):
        """The churn pattern: a task unblocks and blocks again.  Stale
        component bookkeeping must not leak across incarnations."""
        scc = edges_of([(1, 2), (2, 3)])
        scc.remove_vertex(1)
        scc.add_edge(3, 1)  # re-adds 1 with a fresh identity
        assert not scc.has_cycle()
        scc.add_edge(1, 2)
        assert scc.has_cycle()
        scc.remove_vertex(2)
        assert not scc.has_cycle()

    def test_unknown_vertex_raises(self):
        scc = edges_of([("a", "b")])
        with pytest.raises(KeyError):
            scc.component_of("zz")
        with pytest.raises(KeyError):
            scc.epoch_of("zz")
        assert not scc.has_edge("a", "zz")
        assert "zz" not in scc

    def test_cycle_restored_after_break(self):
        scc = edges_of([(1, 2), (2, 1)])
        scc.remove_edge(1, 2)
        assert not scc.has_cycle()
        scc.add_edge(1, 2)
        assert scc.has_cycle()


class TestEpochs:
    def test_epoch_advances_on_component_mutation(self):
        scc = DynamicSCC()
        scc.add_edge("a", "b")
        before = scc.epoch_of("a")
        scc.add_edge("b", "c")
        assert scc.epoch_of("a") > before

    def test_untouched_component_epoch_is_stable(self):
        scc = DynamicSCC()
        scc.add_edge("a", "b")
        scc.add_edge("x", "y")
        before = scc.epoch_of("a")
        scc.add_edge("y", "z")  # other component only
        assert scc.epoch_of("a") == before

    def test_mutation_epoch_is_global(self):
        scc = DynamicSCC()
        e0 = scc.mutation_epoch
        scc.add_edge("a", "b")
        assert scc.mutation_epoch > e0

    def test_component_of_tracks_unions(self):
        scc = DynamicSCC()
        scc.add_edge("a", "b")
        scc.add_edge("c", "d")
        assert scc.component_of("a") == frozenset({"a", "b"})
        scc.add_edge("b", "c")
        assert scc.component_of("a") == frozenset({"a", "b", "c", "d"})


class TestScopedRecompute:
    def test_deletion_in_cyclic_component_recomputes_scoped(self):
        """Breaking one of two cycles in a component keeps the other."""
        scc = edges_of([(1, 2), (2, 1), (2, 3), (3, 2)])
        assert scc.has_cycle()
        scc.remove_edge(2, 1)
        assert scc.has_cycle()  # 2 <-> 3 survives
        scc.remove_edge(3, 2)
        assert not scc.has_cycle()

    def test_component_split_after_deletion(self):
        """A deletion can split a weak component; verdicts must follow
        the true partition after the lazy recompute."""
        scc = edges_of([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
        assert scc.has_cycle()
        scc.remove_edge(2, 3)  # splits {1,2} from {3,4}
        assert scc.has_cycle()  # both halves still cyclic
        scc.remove_edge(2, 1)
        assert scc.has_cycle()  # {3,4} still cyclic
        scc.remove_edge(4, 3)
        assert not scc.has_cycle()


class TestRandomizedDifferential:
    """The oracle property: under random insert/delete churn the
    maintained verdict always equals a from-scratch Tarjan run."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_churn_matches_tarjan(self, seed):
        rng = random.Random(seed)
        scc = DynamicSCC()
        vertices = list(range(12))
        edges = set()
        for step in range(300):
            op = rng.random()
            if op < 0.45 or not edges:
                u, v = rng.choice(vertices), rng.choice(vertices)
                scc.add_edge(u, v)
                edges.add((u, v))
            elif op < 0.8:
                u, v = rng.choice(sorted(edges))
                scc.remove_edge(u, v)
                edges.discard((u, v))
            else:
                v = rng.choice(vertices)
                if v in scc:
                    scc.remove_vertex(v)
                    edges = {(a, b) for a, b in edges if a != v and b != v}
            if step % 7 == 0:
                scc.check_valid()
        scc.check_valid()

    @pytest.mark.parametrize("seed", range(4))
    def test_grow_then_shrink(self, seed):
        """Monotone growth to a dense graph, then full teardown —
        exercising the dirty/recompute path on every deletion."""
        rng = random.Random(100 + seed)
        scc = DynamicSCC()
        edges = [
            (rng.randrange(10), rng.randrange(10)) for _ in range(60)
        ]
        for u, v in edges:
            scc.add_edge(u, v)
        scc.check_valid()
        rng.shuffle(edges)
        for u, v in edges:
            scc.remove_edge(u, v)
            scc.check_valid()
        assert not scc.has_cycle()
        assert scc.edge_count == 0


class TestExtractCycle:
    """extract_cycle: canonical witness from the maintained partition,
    byte-equal to the from-scratch find_cycle, epoch-cached per
    component."""

    def test_acyclic_returns_none(self):
        scc = edges_of([("a", "b"), ("b", "c")])
        assert scc.extract_cycle() is None

    def test_matches_from_scratch_extraction(self):
        scc = edges_of(
            [("b", "c"), ("c", "b"), ("x", "y"), ("m", "a"), ("a", "m")]
        )
        assert scc.extract_cycle() == find_cycle(scc.to_digraph())

    def test_self_loop(self):
        scc = edges_of([("s", "s"), ("a", "b")])
        assert scc.extract_cycle() == find_cycle(scc.to_digraph()) == ["s", "s"]

    def test_global_minimal_vertex_chosen_across_components(self):
        """Two disjoint cyclic components: the one holding the globally
        minimal vertex wins, like find_cycle."""
        scc = edges_of([("z1", "z2"), ("z2", "z1"), ("a1", "a2"), ("a2", "a1")])
        cycle = scc.extract_cycle()
        assert cycle[0] == "a1"

    def test_extraction_is_epoch_cached(self):
        """Re-extracting a stable deadlock while *other* components
        mutate computes nothing new — the per-component epoch cache."""
        scc = edges_of([("a", "b"), ("b", "a")])
        first = scc.extract_cycle()
        done = scc.extractions
        for i in range(5):
            scc.add_edge(f"x{i}", f"x{i + 1}")  # churn elsewhere
            assert scc.extract_cycle() == first
        assert scc.extractions == done

    def test_mutating_the_cyclic_component_recomputes(self):
        scc = edges_of([("a", "b"), ("b", "a")])
        scc.extract_cycle()
        done = scc.extractions
        scc.add_edge("c", "a")
        scc.extract_cycle()
        assert scc.extractions == done + 1

    def test_cache_pruned_when_cycle_breaks(self):
        scc = edges_of([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        scc.extract_cycle()
        scc.remove_edge("b", "a")
        cycle = scc.extract_cycle()
        assert cycle[0] == "c"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_churn_matches_find_cycle(self, seed):
        rng = random.Random(3000 + seed)
        scc = DynamicSCC()
        vertices = [f"v{i}" for i in range(10)]
        edges = set()
        for step in range(200):
            if rng.random() < 0.6 or not edges:
                u, v = rng.choice(vertices), rng.choice(vertices)
                scc.add_edge(u, v)
                edges.add((u, v))
            else:
                u, v = rng.choice(sorted(edges))
                scc.remove_edge(u, v)
                edges.discard((u, v))
            if step % 5 == 0:
                assert scc.extract_cycle() == find_cycle(scc.to_digraph())
        assert scc.extract_cycle() == find_cycle(scc.to_digraph())


def assert_components_sound(scc):
    """Pin ``cyclic_components`` against ground truth.

    A maintained component is an over-approximation (it may span
    vertices that were weakly connected when unioned), so what must
    hold is: every true cyclic SCC is wholly inside exactly one reported
    component, and every reported component really contains a cycle.
    """
    graph = scc.to_digraph()
    truth = [
        frozenset(c)
        for c in strongly_connected_components(graph)
        if len(c) > 1 or graph.has_edge(c[0], c[0])
    ]
    reported = scc.cyclic_components()
    for component in truth:
        assert sum(component <= comp for comp in reported) == 1
    covered = frozenset().union(*truth) if truth else frozenset()
    for comp in reported:
        assert comp & covered, f"component {sorted(comp)} has no cycle"


def random_script(rng, vertices, count):
    """``count`` random mutations as ``(method, *args)`` tuples, lazily
    (removals are picked among the edges live at that point)."""
    edges = set()
    for _ in range(count):
        roll = rng.random()
        if roll < 0.55 or not edges:
            u = rng.choice(vertices)
            v = rng.choice(vertices)
            edges.add((u, v))
            yield "add_edge", u, v
        elif roll < 0.8:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            yield "remove_edge", u, v
        elif roll < 0.9:
            yield "add_vertex", rng.choice(vertices)
        else:
            v = rng.choice(vertices)
            for e in [e for e in edges if v in e]:
                edges.discard(e)
            yield "remove_vertex", v


def chain_script(rng, n, reverse):
    """One ``n``-vertex chain, where a window's charge rule decides:
    edges in seeded order (cheap affected regions: a window rents
    throughout), or ascending *against* the order (every edge reorders
    the chain so far: a window goes over budget and defers).  Now and
    then an edge is cut, or a back edge closes a cycle for a while."""
    name = "c{:03}".format
    if reverse:
        edges = [(name(i), name(i - 1)) for i in range(1, n)]
    else:
        edges = [(name(i), name(i + 1)) for i in range(n - 1)]
        rng.shuffle(edges)
    live, back = [], None
    for edge in edges:
        live.append(edge)
        yield ("add_edge", *edge)
        roll = rng.random()
        if roll < 0.04:
            yield ("remove_edge", *live.pop(rng.randrange(len(live))))
        elif roll < 0.08 and back is None:
            i = rng.randrange(n - 4)
            j = i + rng.randint(1, 4)
            back = (name(i), name(j)) if reverse else (name(j), name(i))
            yield ("add_edge", *back)
        elif roll < 0.2 and back is not None:
            yield ("remove_edge", *back)
            back = None


SCRIPTS = {
    "random": lambda rng: random_script(
        rng, [f"v{i}" for i in range(8)], 600),
    "chain": lambda rng: chain_script(rng, 300, reverse=False),
    "reverse-chain": lambda rng: chain_script(rng, 300, reverse=True),
}


def apply_op(scc, op, vertices, edges):
    """Run one scripted op on ``scc`` and on its shadow model, the plain
    ``vertices`` and ``edges`` sets (updated in place)."""
    method, *args = op
    getattr(scc, method)(*args)
    if method == "add_edge":
        vertices.update(args)
        edges.add(tuple(args))
    elif method == "remove_edge":
        edges.discard(tuple(args))
    elif method == "add_vertex":
        vertices.add(args[0])
    else:
        vertices.discard(args[0])
        edges.difference_update([e for e in edges if args[0] in e])


def assert_matches_shadow(scc, vertices, edges):
    """The structure holds exactly the shadow graph, and its verdict,
    witness and cyclic components are that graph's."""
    assert set(scc.to_digraph().edges()) == edges
    assert (scc.edge_count, scc.vertex_count) == (len(edges), len(vertices))
    scc.check_valid()
    assert scc.extract_cycle() == find_cycle(scc.to_digraph())
    assert_components_sound(scc)


class TestStepwiseMutations:
    """A query after every op makes every window one op long, so each
    write is maintained in place and the ground truth must hold after
    each single op."""

    def run(self, ops, vertices, rng):
        scc = DynamicSCC()
        live, edges = set(), set()
        for op in ops:
            before = scc.mutation_epoch
            shadow = (frozenset(live), frozenset(edges))
            apply_op(scc, op, live, edges)
            # Every state change bumps the global epoch; a no-op does not.
            changed = shadow != (live, edges)
            assert (scc.mutation_epoch > before) == changed
            assert scc.mutation_epoch >= before
            assert_matches_shadow(scc, live, edges)
            if rng.random() < 0.1:
                for v in rng.sample(vertices, 3):
                    assert (v in scc) == (v in live)
                    if v in live:
                        component = scc.component_of(v)
                        assert v in component and component <= live
                        assert scc.epoch_of(v) <= scc.mutation_epoch
        # Every edge stays inside the component of its endpoints.
        for u, v in edges:
            assert scc.component_of(u) == scc.component_of(v)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_mutations(self, seed):
        rng = random.Random(seed)
        vertices = [f"v{i}" for i in range(10)]
        self.run(random_script(rng, vertices, 220), vertices, rng)

    @pytest.mark.parametrize("reverse", [False, True], ids=["chain", "reverse-chain"])
    @pytest.mark.parametrize("seed", range(4))
    def test_chain_mutations(self, seed, reverse):
        """Seeded-order chains rarely reorder; reversed ones reorder the
        whole chain so far on every edge (Pearce-Kelly's worst case)."""
        rng = random.Random(2000 + seed)
        vertices = ["c{:03}".format(i) for i in range(120)]
        self.run(chain_script(rng, 120, reverse), vertices, rng)


class TestBatchWindows:
    """A window is the span between two queries: within it a component
    defers once over budget, and when it gets its scoped re-partition
    depends on order values, so member sets are pinned against ground
    truth at every query that ends one."""

    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_mutations_with_batches(self, seed, script):
        rng = random.Random(1000 + seed)
        scc = DynamicSCC()
        vertices, edges = set(), set()  # the ops' ground truth
        ops = SCRIPTS[script](rng)
        while window := list(islice(ops, rng.choice((1, 2, 8, 64)))):
            for op in window:
                apply_op(scc, op, vertices, edges)
            assert_matches_shadow(scc, vertices, edges)

    def test_a_query_ends_the_window(self):
        """A component that overspent its budget defers until a query;
        after the query its next violating edge runs Pearce-Kelly in
        place again."""
        n = 200
        scc = DynamicSCC()
        for i in range(1, n):
            scc.add_edge(i, i - 1)  # reverse chain: every edge violates
        visits = scc.pk_visits
        scc.add_edge(n, n - 1)  # over budget: only marked dirty
        assert scc.pk_visits == visits
        assert not scc.has_cycle()
        assert scc.resolves == 1
        scc.add_edge(n + 1, n)  # a fresh window: maintained in place
        assert scc.pk_visits > visits
        assert not scc.has_cycle()
        assert scc.resolves == 1


class TestWindowCost:
    """What the span between two queries may cost: per component, a
    constant factor over the cheaper of per-edge Pearce-Kelly and one
    scoped Tarjan."""

    def test_one_op_windows_never_resolve(self):
        """A query after every edge leaves each window that edge's
        affected region — never a Tarjan over the component."""
        n = 4000
        edges = [(i, i + 1) for i in range(n - 1)]
        random.Random(1).shuffle(edges)
        scc = DynamicSCC()
        for u, v in edges:
            scc.add_edge(u, v)
            assert not scc.has_cycle()
        assert scc.resolves == 0
        assert len(scc.component_of(0)) == n

    def test_one_big_window_buys_after_renting(self):
        """Pearce-Kelly's worst case (every edge violates the order and
        reorders the whole chain so far: ~n^2/2 visits per-edge) with
        no query in between stops renting at the component's size and
        pays one Tarjan."""
        n = 8000
        scc = DynamicSCC()
        t0 = time.perf_counter()
        for i in range(1, n):
            scc.add_edge(i, i - 1)
        assert not scc.has_cycle()
        wall = time.perf_counter() - t0
        assert scc.pk_visits <= 4 * n
        assert scc.resolves <= 1
        assert wall < 1.0
        scc.add_edge(0, n - 1)
        assert scc.has_cycle()

    def test_charge_is_per_component(self):
        """One component running up the window's bill defers only
        itself: a cheap violating edge elsewhere still runs in place."""
        count, size = 100, 900
        scc = DynamicSCC()
        for c in range(count):
            base = (c + 1) * 10_000
            for i in range(size - 1):
                scc.add_edge(base + i, base + i + 1)
        assert not scc.has_cycle()  # the window opens here
        for i in range(1, 2000):
            scc.add_edge(i, i - 1)  # trips its own bound early
        for c in range(count):
            base = (c + 1) * 10_000
            # A fresh vertex (highest order so far) pointing into the
            # chain's tail: order-violating, three vertices affected.
            scc.add_edge(base + size, base + size - 2)
        assert not scc.has_cycle()
        assert scc.resolves == 1  # the expensive component alone
        assert scc.pk_visits <= 3 * count + 4 * 2000
