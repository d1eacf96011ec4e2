"""Registry semantics: determinism, merge algebra, the disabled twin.

The properties pinned here are the ones the rest of the stack leans on:

* snapshots are *canonical* — metric order, child order and label
  order are functions of the data, never of call order;
* ``merge`` is associative and commutative, so parallel-replay fan-in
  may fold worker registries in any order;
* the :data:`~repro.obs.registry.NULL_REGISTRY` twin is a true no-op —
  identical instrument surface, empty snapshot, zero state.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)


def make_loaded(order: str = "forward") -> MetricsRegistry:
    """A registry with one of each instrument kind; ``order`` varies the
    creation and increment order without varying the data."""
    reg = MetricsRegistry()
    steps = [
        lambda: reg.counter("c_total", "a counter", labels=("op",)).inc(2, op="put"),
        lambda: reg.counter("c_total", "a counter", labels=("op",)).inc(3, op="get"),
        lambda: reg.gauge("g", "a gauge").set(7),
        lambda: reg.histogram("h", "sizes", buckets=(1, 10, 100)).observe(5),
        lambda: reg.histogram("h", "sizes", buckets=(1, 10, 100)).observe(500),
    ]
    if order == "reverse":
        steps = list(reversed(steps))
    for step in steps:
        step()
    return reg


class TestCounters:
    def test_inc_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labels=("op",))
        c.inc(op="put")
        c.inc(4, op="get")
        assert c.value(op="put") == 1
        assert c.value(op="get") == 4
        assert c.total() == 5
        assert c.per_label() == {("put",): 1, ("get",): 4}

    def test_bound_counter_shares_storage(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labels=("op",))
        bound = c.labels(op="put")
        bound.inc()
        bound.inc(2)
        assert c.value(op="put") == 3

    def test_labels_does_not_create_children(self):
        """Pre-binding every enum value must not materialise zero-count
        children (checker tests compare model-count dicts exactly)."""
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labels=("op",))
        c.labels(op="never_used")
        assert c.per_label() == {}
        assert c.snapshot()["values"] == []

    def test_labels_returns_the_identical_child(self):
        reg = MetricsRegistry()
        for instrument in (reg.counter("c_total", labels=("op",)),
                           reg.gauge("g", labels=("op",)),
                           reg.histogram("h", labels=("op",))):
            assert instrument.labels(op="a") is instrument.labels(op="a")
            assert instrument.labels(op="a") is not instrument.labels(op="b")

    def test_labels_identity_survives_a_racing_first_bind(self):
        """More threads than cores race the first ``labels()`` of each
        of many label values; every thread must come away holding the
        same child, or an increment lands in a lost object."""
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labels=("op",))
        n_threads, n_labels = 16, 200
        held = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def bind(slot):
            barrier.wait(10)
            for i in range(n_labels):
                child = c.labels(op=str(i))
                child.inc()
                slot.append(child)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bind, args=(slot,))
                       for slot in held]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for slot in held[1:]:
            assert all(a is b for a, b in zip(held[0], slot))
        assert c.total() == n_threads * n_labels
        assert set(c.per_label().values()) == {n_threads}

    def test_handle_held_across_clear_rejoins_on_next_update(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labels=("op",))
        h = reg.histogram("sizes", buckets=(1, 10))
        put, sizes = c.labels(op="put"), h.labels()
        put.inc(5)
        sizes.observe(7)
        c.clear()
        h.clear()
        assert c.per_label() == {} and c.total() == 0
        assert c.snapshot()["values"] == h.snapshot()["values"] == []
        assert c.labels(op="put") is put  # the handle is still the child
        put.inc()
        sizes.observe(3)
        assert c.per_label() == {("put",): 1}
        assert h.count_of() == 1 and h.sum_of() == 3 and h.max_of() == 3

    def test_schema_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labels=("b",))
        with pytest.raises(ValueError):
            reg.gauge("x_total")


class TestGaugesAndHistograms:
    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_histogram_buckets_and_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", buckets=(1, 10, 100))
        for v in (0, 1, 5, 50, 1000):
            h.observe(v)
        snap = h.snapshot()["values"][0]
        # bisect_left: a value equal to an upper bound lands below it.
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == 1056
        assert snap["min"] == 0 and snap["max"] == 1000

    def test_quantiles_clamped_to_observed_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", buckets=(1, 10, 100))
        for v in (2, 3, 4):
            h.observe(v)
        assert h.quantile(0.5) == 4  # upper bound 10, clamped to vmax
        assert h.quantile(1.0) == 4


class TestSnapshotDeterminism:
    def test_snapshot_independent_of_creation_order(self):
        assert make_loaded("forward").snapshot() == make_loaded("reverse").snapshot()

    def test_label_kwarg_order_is_canonicalised(self):
        a = MetricsRegistry()
        a.counter("c_total", labels=("x", "y")).inc(x="1", y="2")
        b = MetricsRegistry()
        b.counter("c_total", labels=("x", "y")).inc(y="2", x="1")
        assert a.snapshot() == b.snapshot()

    def test_volatile_excluded_from_deterministic_view(self):
        reg = MetricsRegistry()
        reg.counter("keep_total").inc()
        reg.counter("drop_total", volatile=True).inc()
        names = [m["name"] for m in reg.snapshot(volatile=False)["metrics"]]
        assert names == ["keep_total"]
        names = [m["name"] for m in reg.snapshot()["metrics"]]
        assert names == ["drop_total", "keep_total"]

    def test_pickle_round_trip(self):
        reg = make_loaded()
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.snapshot() == reg.snapshot()
        # The clone is live, not a frozen copy.
        clone.counter("c_total", labels=("op",)).inc(op="put")
        assert clone.get("c_total").value(op="put") == 3


class TestMergeAlgebra:
    def regs(self):
        a = MetricsRegistry()
        a.counter("c_total").inc(1)
        a.histogram("h", buckets=(1, 10)).observe(0)
        a.gauge("depth").set(3)
        b = MetricsRegistry()
        b.counter("c_total").inc(10)
        b.histogram("h", buckets=(1, 10)).observe(5)
        b.gauge("depth").set(9)
        c = MetricsRegistry()
        c.counter("c_total").inc(100)
        c.histogram("h", buckets=(1, 10)).observe(50)
        c.gauge("depth").set(6)
        return a, b, c

    def fold(self, *regs) -> dict:
        acc = MetricsRegistry()
        for reg in regs:
            acc.merge(reg)
        return acc.snapshot()

    def test_merge_is_order_insensitive(self):
        a, b, c = self.regs()
        assert self.fold(a, b, c) == self.fold(c, b, a) == self.fold(b, a, c)

    def test_merge_is_associative(self):
        a, b, c = self.regs()
        left = MetricsRegistry()
        left.merge(a)
        left.merge(b)
        right = MetricsRegistry()
        right.merge(b)
        right.merge(c)
        ab_c = MetricsRegistry()
        ab_c.merge(left)
        ab_c.merge(c)
        a_bc = MetricsRegistry()
        a_bc.merge(a)
        a_bc.merge(right)
        assert ab_c.snapshot() == a_bc.snapshot()

    def test_merge_folds_every_field(self):
        a, b, c = self.regs()
        acc = MetricsRegistry()
        for reg in (a, b, c):
            acc.merge(reg)
        assert acc.get("c_total").total() == 111
        assert acc.get("depth").value() == 18  # gauges fold by sum
        h = acc.get("h")
        assert h.count_of() == 3
        assert h.sum_of() == 55
        assert h.min_of() == 0 and h.max_of() == 50

    def test_merge_schema_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("m")
        b = MetricsRegistry()
        b.gauge("m")
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_disjoint_label_sets_unions_children(self):
        """Per-site snapshots label their series by site; merging two
        sites with no label overlap must keep every child intact."""
        a = MetricsRegistry()
        a.counter("checks_total", labels=("site",)).inc(3, site="s0")
        a.histogram("lag", labels=("site",), buckets=(1, 10)).observe(
            2, site="s0"
        )
        b = MetricsRegistry()
        b.counter("checks_total", labels=("site",)).inc(5, site="s1")
        b.histogram("lag", labels=("site",), buckets=(1, 10)).observe(
            7, site="s1"
        )
        acc = MetricsRegistry()
        acc.merge(a)
        acc.merge(b)
        checks = acc.get("checks_total")
        assert checks.value(site="s0") == 3
        assert checks.value(site="s1") == 5
        assert checks.total() == 8
        lag = acc.get("lag")
        assert lag.count_of(site="s0") == 1 and lag.sum_of(site="s0") == 2
        assert lag.count_of(site="s1") == 1 and lag.sum_of(site="s1") == 7
        # The union survives a snapshot round-trip order-insensitively.
        acc2 = MetricsRegistry()
        acc2.merge(b)
        acc2.merge(a)
        assert acc.snapshot() == acc2.snapshot()

    def test_merge_null_is_identity(self):
        a = MetricsRegistry()
        a.counter("c_total").inc()
        before = a.snapshot()
        a.merge(NULL_REGISTRY)
        assert a.snapshot() == before


class TestNullRegistry:
    def test_singleton_and_disabled(self):
        assert isinstance(NULL_REGISTRY, NullRegistry)
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_instruments_are_inert(self):
        c = NULL_REGISTRY.counter("c_total", labels=("op",))
        c.inc(5, op="x")
        c.labels(op="x").inc()
        NULL_REGISTRY.gauge("g").set(3)
        NULL_REGISTRY.histogram("h").observe(1)
        assert NULL_REGISTRY.snapshot() == {"v": 1, "metrics": []}
        assert NULL_REGISTRY.names() == []
