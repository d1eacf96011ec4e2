"""The opt-in compiled core: selection policy and semantic parity.

Two groups of pins:

* **Selection policy** — ``REPRO_NATIVE`` governs which structure
  :func:`~repro.core.scc.make_dynamic_scc` builds: off-values force
  pure Python, require-values demand the kernel (and raise when it was
  never built), and ``auto``/unset uses whatever is importable.  The
  fallback shim must work on machines with no C toolchain, so the
  policy tests run everywhere; only the parity tests skip when the
  extension is absent.

* **Semantic parity** — the kernel-backed structure must be
  *observationally* identical to :class:`~repro.core.scc.DynamicSCC`:
  same verdicts, same canonical witness cycles (each equal to
  ``find_cycle`` over the materialised graph), same mutation epochs,
  same edge/vertex counts, under randomised mutation sequences with
  batch windows interleaved.  (Internal label numbers, ``pk_visits``
  and the exact *member sets* of components may differ: which edges
  are order-violating — and therefore when a component gets a scoped
  re-partition — depends on topological-order values that the pure
  structure itself varies across hash seeds.  Canonical extraction
  makes all of that unobservable in reports; component sets are
  instead pinned against ground-truth SCCs.)
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from repro.core import _native
from repro.core.cycles import find_cycle, strongly_connected_components
from repro.core.scc import DynamicSCC, make_dynamic_scc


class TestSelectionPolicy:
    @pytest.mark.parametrize("flag", ["0", "off", "no", "false", " OFF "])
    def test_off_values_force_pure_python(self, monkeypatch, flag):
        monkeypatch.setenv(_native.NATIVE_ENV, flag)
        assert not _native.native_enabled()
        assert _native.native_scc_class() is None
        assert type(make_dynamic_scc()) is DynamicSCC

    def test_auto_never_raises(self, monkeypatch):
        """Unset (auto) must work with or without the extension."""
        monkeypatch.delenv(_native.NATIVE_ENV, raising=False)
        structure = make_dynamic_scc()
        if _native.native_available():
            assert type(structure) is _native.NativeDynamicSCC
        else:
            assert type(structure) is DynamicSCC

    @pytest.mark.parametrize("flag", ["1", "on", "yes", "true", "require"])
    def test_require_raises_without_extension(self, monkeypatch, flag):
        monkeypatch.setenv(_native.NATIVE_ENV, flag)
        monkeypatch.setattr(_native, "_kernel_mod", None)
        with pytest.raises(RuntimeError, match="build_ext"):
            _native.native_enabled()

    def test_require_selects_kernel_when_built(self, monkeypatch):
        if not _native.native_available():
            pytest.skip("compiled kernel not built")
        monkeypatch.setenv(_native.NATIVE_ENV, "require")
        assert _native.native_scc_class() is _native.NativeDynamicSCC
        assert type(make_dynamic_scc()) is _native.NativeDynamicSCC

    def test_fallback_import_without_extension(self, monkeypatch):
        """The pure-Python leg of CI: with the kernel absent, auto mode
        must quietly build the pure structure (never raise)."""
        monkeypatch.delenv(_native.NATIVE_ENV, raising=False)
        monkeypatch.setattr(_native, "_kernel_mod", None)
        assert not _native.native_available()
        assert _native.native_scc_class() is None
        assert type(make_dynamic_scc()) is DynamicSCC


needs_kernel = pytest.mark.skipif(
    not _native.native_available(),
    reason="compiled kernel not built (run `python setup.py build_ext "
    "--inplace`)",
)


def components_key(structure):
    """Hashable, order-independent view of the cyclic components."""
    return sorted(
        tuple(sorted(map(str, comp)))
        for comp in structure.cyclic_components()
    )


def true_cyclic_sccs(graph):
    """Ground truth: the actual cyclic SCCs of a materialised graph."""
    return [
        frozenset(scc)
        for scc in strongly_connected_components(graph)
        if len(scc) > 1 or graph.has_edge(scc[0], scc[0])
    ]


def assert_components_sound(structure):
    """Pin ``cyclic_components`` against ground truth.

    A maintained component is an over-approximation (it may span
    vertices that were weakly connected when unioned), so member sets
    are not compared between implementations — what must hold for
    either one: every true cyclic SCC is wholly inside exactly one
    reported component, and every reported component really contains a
    cycle.
    """
    graph = structure.to_digraph()
    truth = true_cyclic_sccs(graph)
    reported = structure.cyclic_components()
    for scc in truth:
        assert sum(scc <= comp for comp in reported) == 1
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


def apply_both(op, pure, native):
    method, *args = op
    getattr(pure, method)(*args)
    getattr(native, method)(*args)


@needs_kernel
class TestKernelParity:
    def assert_equivalent(self, pure, native, ground_truth=False):
        assert native.has_cycle() == pure.has_cycle()
        assert native.edge_count == pure.edge_count
        assert native.vertex_count == pure.vertex_count
        assert native.mutation_epoch == pure.mutation_epoch
        assert native.extract_cycle() == pure.extract_cycle()
        if ground_truth:
            assert native.extract_cycle() == find_cycle(native.to_digraph())
            assert_components_sound(pure)
            assert_components_sound(native)
        else:
            # Outside batch windows both sides run the same maintenance
            # at the same points, so even the (over-approximate) member
            # sets coincide.
            assert components_key(native) == components_key(pure)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_mutations(self, seed):
        rng = random.Random(seed)
        vertices = [f"v{i}" for i in range(10)]
        pure, native = DynamicSCC(), _native.NativeDynamicSCC()
        for op in random_script(rng, vertices, 220):
            apply_both(op, pure, native)
            self.assert_equivalent(pure, native)
            if rng.random() < 0.1:
                for v in rng.sample(vertices, 3):
                    assert (v in native) == (v in pure)
                    if v in pure:
                        assert native.component_of(v) == pure.component_of(v)
                        assert native.epoch_of(v) == pure.epoch_of(v)

    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_mutations_with_batches(self, seed, script):
        """Interleave batch windows: inside a window a component defers
        once over budget, so equivalence is asserted at the window
        edges.  When a component gets its scoped re-partition depends
        on order values, so component member sets are pinned against
        ground truth here, not against each other (see the module
        docstring)."""
        rng = random.Random(1000 + seed)
        pure, native = DynamicSCC(), _native.NativeDynamicSCC()
        ops = SCRIPTS[script](rng)
        while window := list(islice(ops, rng.choice((1, 2, 8, 64)))):
            pure.begin_batch()
            native.begin_batch()
            for op in window:
                apply_both(op, pure, native)
            pure.end_batch()
            native.end_batch()
            self.assert_equivalent(pure, native, ground_truth=True)

    def test_scoped_queries_match(self):
        pure, native = DynamicSCC(), _native.NativeDynamicSCC()
        for structure in (pure, native):
            for u, v in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),
                         ("d", "e"), ("e", "d"), ("x", "x")]:
                structure.add_edge(u, v)
        scope = {"a", "b", "c", "d"}
        assert native.edges_within(scope) == pure.edges_within(scope)
        assert (native.extract_cycle_within(frozenset(scope))
                == pure.extract_cycle_within(frozenset(scope)))
        assert native.extract_cycle() == pure.extract_cycle()
        native.check_valid()

    def test_unknown_vertex_raises(self):
        native = _native.NativeDynamicSCC()
        native.add_edge("a", "b")
        with pytest.raises(KeyError):
            native.component_of("zz")
        with pytest.raises(KeyError):
            native.epoch_of("zz")
        assert not native.has_edge("a", "zz")
        assert "zz" not in native

    def test_end_batch_without_begin_raises(self):
        native = _native.NativeDynamicSCC()
        with pytest.raises(RuntimeError):
            native.end_batch()

    def test_reblocked_vertex_reuses_interned_id(self):
        """Unblock/re-block churn must not grow the intern table."""
        native = _native.NativeDynamicSCC()
        for _ in range(100):
            native.add_edge("a", "b")
            native.remove_vertex("a")
            native.remove_vertex("b")
        assert len(native._ids) == 2
        assert native.vertex_count == 0
