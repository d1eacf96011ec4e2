"""One-phase distributed detection over the delta protocol.

``DistributedChecker`` now maintains its global view from per-site
delta streams instead of re-merging buckets; these tests pin the
detection semantics (cross-site cycles, no-cycle, outages), the
O(change) sync behaviour, gap/checkpoint recovery, and — the acceptance
differential — report byte-identity with a from-scratch check of the
merged store states.
"""

from __future__ import annotations

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.events import waiting_on
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaPublisher, encode_bucket, merge_buckets
from repro.distributed.detector import DistributedChecker
from repro.distributed import store as store_mod
from repro.distributed.store import (
    InMemoryStore,
    StoreUnavailableError,
)


def publish(store, site, statuses, publisher=None):
    """One delta-protocol publication round for ``site``."""
    publisher = publisher or DeltaPublisher(site)
    obj = publisher.prepare(encode_bucket(statuses))
    if obj is not None:
        store.append_delta(site, obj)
        publisher.commit(obj)
    return publisher


def crossed_knot():
    return (
        {"a": waiting_on("p", 1, p=1, q=0)},
        {"b": waiting_on("q", 1, q=1, p=0)},
    )


class TestMerge:
    def test_disjoint_union(self):
        payloads = {
            "s0": encode_bucket({"t1": waiting_on("p", 1, p=1)}),
            "s1": encode_bucket({"t2": waiting_on("q", 1, q=1)}),
        }
        snap = merge_buckets(payloads)
        assert set(snap.tasks) == {"t1", "t2"}

    def test_duplicate_task_rejected(self):
        blob = encode_bucket({"t1": waiting_on("p", 1, p=1)})
        with pytest.raises(ValueError):
            merge_buckets({"s0": blob, "s1": blob})

    def test_empty(self):
        assert merge_buckets({}).is_empty()


class TestGlobalCheck:
    def test_cross_site_cycle_found(self):
        """The deadlock spans two sites: neither site's local view has a
        cycle, the merged view does — the whole point of Section 5.2."""
        store = InMemoryStore()
        a, b = crossed_knot()
        publish(store, "s0", a)
        publish(store, "s1", b)
        checker = DistributedChecker(store)
        report = checker.check_global()
        assert report is not None
        assert set(report.tasks) == {"a", "b"}

    def test_no_cycle_no_report(self):
        store = InMemoryStore()
        publish(store, "s0", {"a": waiting_on("p", 1, p=1)})
        assert DistributedChecker(store).check_global() is None

    def test_store_outage_propagates(self):
        store = InMemoryStore()
        store.set_available(False)
        with pytest.raises(StoreUnavailableError):
            DistributedChecker(store).check_global()

    def test_model_configuration(self):
        store = InMemoryStore()
        a, b = crossed_knot()
        publish(store, "s0", a)
        publish(store, "s1", b)
        for model in (GraphModel.WFG, GraphModel.SG, GraphModel.AUTO):
            checker = DistributedChecker(store, model=model)
            assert checker.check_global() is not None
        assert checker.stats.checks == 1


class TestDeltaFedView:
    def test_idle_rounds_apply_no_ops(self):
        """The tentpole property: an unchanged cluster costs O(1) per
        round — no bucket re-merge, no status re-application."""
        store = InMemoryStore()
        a, b = crossed_knot()
        publish(store, "s0", a)
        publish(store, "s1", b)
        checker = DistributedChecker(store)
        checker.check_global()
        ops = checker.view.ops_applied
        for _ in range(5):
            checker.check_global()
        assert checker.view.ops_applied == ops

    def test_incremental_change_applies_only_the_change(self):
        store = InMemoryStore()
        pub = publish(store, "s0", {f"t{i}": waiting_on("p", i + 1, p=i + 1)
                                    for i in range(20)})
        checker = DistributedChecker(store)
        checker.check_global()
        ops = checker.view.ops_applied
        statuses = {f"t{i}": waiting_on("p", i + 1, p=i + 1) for i in range(20)}
        statuses["t20"] = waiting_on("q", 1, q=1)
        publish(store, "s0", statuses, pub)
        checker.check_global()
        assert checker.view.ops_applied == ops + 1  # one set op, not 21

    def test_gap_triggers_checkpoint_resync(self, monkeypatch):
        monkeypatch.setattr(store_mod, "MAX_LOG", 2)
        store = InMemoryStore()
        pub = publish(store, "s0", {"a": waiting_on("p", 1, p=1)})
        checker = DistributedChecker(store)
        checker.check_global()
        statuses = {"a": waiting_on("p", 1, p=1)}
        for i in range(6):  # push the log past the cap
            statuses[f"x{i}"] = waiting_on(f"r{i}", 1, **{f"r{i}": 1})
            pub = publish(store, "s0", statuses, pub)
        # A second (cold) checker's cursor has been compacted off.
        cold = DistributedChecker(store)
        assert cold.check_global() is None
        assert cold.resyncs == 1
        assert set(cold.view.buckets["s0"]) == set(encode_bucket(statuses))

    def test_withdrawn_stream_drops_the_sites_tasks(self):
        store = InMemoryStore()
        a, b = crossed_knot()
        publish(store, "s0", a)
        publish(store, "s1", b)
        checker = DistributedChecker(store)
        assert checker.check_global() is not None
        store.delete("s1")
        # The cycle involved b; dropping s1's stream must clear it.
        assert checker.check_global() is None
        assert checker.view.sites() == ["s0"]

    def test_restarted_stream_resyncs(self):
        """A site that crashed and rejoined restarts at seq 1 with a
        snapshot; consumers ahead of the new tail must resync, not
        wedge."""
        store = InMemoryStore()
        pub = publish(store, "s0", {"a": waiting_on("p", 1, p=1)})
        for i in range(3):
            pub = publish(
                store, "s0",
                {"a": waiting_on("p", 1, p=1),
                 f"x{i}": waiting_on(f"r{i}", 1, **{f"r{i}": 1})},
                pub,
            )
        checker = DistributedChecker(store)
        checker.check_global()
        assert checker.view.cursor_seq("s0") == 4
        publish(store, "s0", {"b": waiting_on("q", 1, q=1)})  # fresh stream
        assert checker.check_global() is None
        assert checker.view.cursor_seq("s0") == 1
        assert set(checker.view.buckets["s0"]) == {"b"}

    def test_new_stream_overtaking_old_cursor_resyncs(self):
        """The aliasing hole stream tokens close: a restarted site's
        new stream reaches a seq *beyond* the consumer's old-stream
        cursor before the next poll.  Without tokens the numbers line
        up and new deltas would silently splice onto old state; with
        them the mismatch forces a checkpoint resync."""
        store = InMemoryStore()
        pub = None
        statuses = {}
        for i in range(5):
            statuses[f"x{i}"] = waiting_on(f"r{i}", 1, **{f"r{i}": 1})
            pub = publish(store, "s0", dict(statuses), pub)
        checker = DistributedChecker(store)
        checker.check_global()
        assert checker.view.cursor_seq("s0") == 5
        # The site restarts (fresh publisher incarnation) and its new
        # stream runs past seq 5 before the checker polls again.
        pub2 = None
        fresh = {}
        for i in range(6):
            fresh[f"y{i}"] = waiting_on(f"w{i}", 1, **{f"w{i}": 1})
            pub2 = publish(store, "s0", dict(fresh), pub2)
        assert checker.check_global() is None
        assert checker.resyncs == 1
        assert set(checker.view.buckets["s0"]) == set(encode_bucket(fresh))


def reference_check(store, model=GraphModel.AUTO):
    """The oracle: a from-scratch check of the plain merge of every
    site's materialised store state."""
    snapshot = merge_buckets(
        {site: store.get_state(site)[2] for site in store.delta_sites()}
    )
    return DeadlockChecker(model=model).check(snapshot=snapshot)


class TestProtocolEquivalence:
    """The acceptance pin: the delta-fed maintained view reports
    byte-identically to a from-scratch check of the merged store
    states."""

    def drive_both(self, rounds):
        """``rounds`` is a list of {site: statuses} cluster states; the
        maintained checker's per-round report must match the oracle's."""
        store = InMemoryStore("delta")
        checker = DistributedChecker(store)
        publishers = {}
        for state in rounds:
            for site, statuses in state.items():
                publishers[site] = publish(
                    store, site, statuses, publishers.get(site)
                )
            expected = reference_check(store)
            actual = checker.check_global()
            assert actual == expected
        return expected

    def test_cross_site_knot_reports_identical(self):
        a, b = crossed_knot()
        report = self.drive_both([
            {"s0": {"t0": waiting_on("w", 1, w=1)}, "s1": {}},
            {"s0": dict(a, t0=waiting_on("w", 1, w=1)), "s1": b},
        ])
        assert report is not None

    def test_churny_rounds_identical(self):
        rounds = []
        for r in range(1, 6):
            state = {}
            for s in range(3):
                statuses = {
                    f"s{s}t{i}": waiting_on("bar", r, bar=r)
                    for i in range(r % 3 + 1)
                }
                state[f"s{s}"] = statuses
            rounds.append(state)
        # Final round ties a cross-site knot.
        a, b = crossed_knot()
        rounds.append({"s0": a, "s1": b, "s2": {}})
        report = self.drive_both(rounds)
        assert report is not None

    def test_fixed_models_identical(self):
        a, b = crossed_knot()
        for model in (GraphModel.WFG, GraphModel.SG):
            store = InMemoryStore()
            publish(store, "s0", a)
            publish(store, "s1", b)
            expected = reference_check(store, model=model)
            actual = DistributedChecker(store, model=model).check_global()
            assert actual == expected
            assert actual is not None
