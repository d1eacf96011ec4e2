"""Cross-layer wiring: every subsystem's instruments land in one registry.

These tests hand a single enabled :class:`MetricsRegistry` to each layer
— checker, incremental checker, runtime, store, replicated store,
distributed checker — and assert the advertised series appear with the
right values, that ``CheckStats`` reads the registry it records into,
that components sharing a registry *sum* into it, and that a replay
has one registry from its first record.
"""

from __future__ import annotations

import pytest

from repro.core.checker import CheckStats, DeadlockChecker
from repro.core.events import waiting_on
from repro.core.incremental import IncrementalChecker
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaPublisher, encode_bucket, make_snapshot
from repro.distributed.detector import DistributedChecker
from repro.distributed.store import InMemoryStore, ReplicatedStore
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


def deadlock_example(checker) -> None:
    """Example 4.1: three producers and a consumer, wedged."""
    for i in (1, 2, 3):
        checker.set_blocked(f"t{i}", waiting_on("pc", 1, pc=1, pb=0))
    checker.set_blocked("t4", waiting_on("pb", 1, pc=0, pb=1))


class TestCheckerWiring:
    def test_check_instruments_bind_into_passed_registry(self):
        reg = MetricsRegistry()
        checker = DeadlockChecker(metrics=reg)
        deadlock_example(checker)
        assert checker.check() is not None
        assert reg.get("repro_checks_total").total() == 1
        assert reg.get("repro_check_cycles_found_total").total() == 1
        assert reg.get("repro_check_edges").count_of() == 1

    def test_stats_view_reads_registry_storage(self):
        reg = MetricsRegistry()
        checker = DeadlockChecker(metrics=reg)
        deadlock_example(checker)
        checker.check()
        stats = checker.stats
        assert stats.metrics is reg
        assert stats.checks == 1
        assert stats.cycles_found == 1
        assert stats.edges_total == reg.get("repro_check_edges").sum_of()

    def test_stats_fallback_registry_when_none_passed(self):
        """CheckStats must keep working with no registry in sight."""
        checker = DeadlockChecker()
        deadlock_example(checker)
        checker.check()
        assert checker.stats.checks == 1
        assert checker.stats.metrics.enabled

    def test_latency_quantiles_derive_from_buckets(self):
        checker = DeadlockChecker()
        deadlock_example(checker)
        checker.check()
        stats = checker.stats
        assert stats.p50_latency_s > 0
        assert stats.p50_latency_s <= stats.p95_latency_s
        assert stats.max_latency_s <= stats.total_time_s

    def test_model_histogram_round_trips_through_labels(self):
        checker = DeadlockChecker(model=GraphModel.WFG)
        deadlock_example(checker)
        checker.check()
        assert checker.stats.model_counts == {GraphModel.WFG: 1}

    def test_merge_same_registry_does_not_double_count(self):
        reg = MetricsRegistry()
        a = DeadlockChecker(metrics=reg)
        b = DeadlockChecker(metrics=reg)
        deadlock_example(a)
        a.check()
        b.check()
        # Shared storage: the registry already holds the sum.
        assert reg.get("repro_checks_total").total() == 2
        assert CheckStats(reg).checks == 2

    def test_merge_distinct_registries_folds(self):
        a = DeadlockChecker()
        b = DeadlockChecker()
        deadlock_example(a)
        a.check()
        b.check()
        total = MetricsRegistry()
        total.merge(a.stats.metrics)
        total.merge(b.stats.metrics)
        stats = CheckStats(total)
        assert stats.checks == 2
        assert stats.cycles_found == 1


class TestIncrementalWiring:
    def test_delta_op_counters(self):
        reg = MetricsRegistry()
        checker = IncrementalChecker(metrics=reg)
        checker.set_blocked("t1", waiting_on("p", 1, p=1))
        checker.clear("t1")
        ops = reg.get("repro_incremental_delta_ops_total")
        assert ops.value(op="set_blocked") == 1
        assert ops.value(op="clear") == 1

    def test_scc_work_is_published_at_read(self):
        reg = MetricsRegistry()
        checker = IncrementalChecker(model=GraphModel.WFG, metrics=reg)
        deadlock_example(checker)
        assert checker.check() is not None
        work = reg.get("repro_scc_work_total")
        assert work.volatile  # hash-seed-dependent: excluded from goldens
        assert work.value(kind="pk_visits") == checker._scc.pk_visits
        checker.clear("t4")  # trailing delta, no check afterwards
        assert work.value(kind="pk_visits") == checker._scc.pk_visits

    def test_shared_registry_scc_work_sums_and_never_decreases(self):
        """Two checkers on one registry: each publishes what *it* did
        since it last published, so the ``_total`` series is their sum
        and no read is below the one before."""
        reg = MetricsRegistry()
        busy = IncrementalChecker(model=GraphModel.WFG, metrics=reg)
        idle = IncrementalChecker(model=GraphModel.WFG, metrics=reg)
        busy.apply_batch([
            ("set", f"t{i}",
             waiting_on(f"p{i}", 1, **{f"p{i}": 1, f"p{(i + 1) % 64}": 0}))
            for i in range(64)
        ])  # a 64-task ring, resolved in one batch
        work = reg.get("repro_scc_work_total")
        reads = []
        for checker in (busy, idle, busy):
            checker.check()
            reads.append(work.per_label())
        assert set(reads[0]) == {("extractions",), ("pk_visits",), ("resolves",)}
        for before, after in zip(reads, reads[1:]):
            assert all(after[kind] >= before[kind] for kind in before)
        assert reads[0][("resolves",)] >= 1
        for kind in ("extractions", "pk_visits", "resolves"):
            assert reads[-1][(kind,)] == (
                getattr(busy._scc, kind) + getattr(idle._scc, kind)
            )

    def test_fallback_counter_on_cyclic_state(self):
        reg = MetricsRegistry()
        checker = IncrementalChecker(model=GraphModel.AUTO, metrics=reg)
        deadlock_example(checker)
        assert checker.check() is not None
        assert reg.get("repro_incremental_fallback_checks_total").total() >= 1


class TestRuntimeWiring:
    def test_blocked_gauge_and_hook_counters(self, runtime_factory):
        import threading

        reg = MetricsRegistry()
        runtime = runtime_factory("detection", metrics=reg)
        from repro.runtime.phaser import Phaser

        ph = Phaser(runtime, register_self=True, name="p")
        release = threading.Event()

        def worker():
            ph.arrive_and_await_advance()

        task = runtime.spawn(worker, register=[ph], name="w")
        deadline = threading.Event()
        for _ in range(2000):
            if reg.get("repro_blocked_tasks").value() == 1:
                break
            deadline.wait(0.002)
        assert reg.get("repro_blocked_tasks").value() == 1
        assert reg.get("repro_block_events_total").value(hook="entry") == 1
        ph.arrive_and_deregister()
        task.join(5)
        assert reg.get("repro_blocked_tasks").value() == 0
        assert reg.get("repro_block_events_total").value(hook="exit") == 1
        assert release is not None  # silence unused warnings

    def test_off_mode_records_nothing(self, runtime_factory):
        reg = MetricsRegistry()
        runtime = runtime_factory("off", metrics=reg)
        runtime.spawn(lambda: None).join(5)
        assert reg.get("repro_block_events_total").total() == 0

    def test_null_registry_default(self, runtime_factory):
        runtime = runtime_factory("detection")
        assert runtime.metrics is NULL_REGISTRY


class TestStoreWiring:
    def test_legacy_counters_are_views_over_instruments(self):
        reg = MetricsRegistry()
        store = InMemoryStore(name="s", metrics=reg)
        store.append_delta("site-a", make_snapshot(1, {}, "S"))
        store.get_state("site-a")
        ops = reg.get("repro_store_ops_total")
        assert ops.value(store="s", op="put") == 1
        assert ops.value(store="s", op="get") == 1

    def test_append_kinds_and_gap_counters(self):
        from repro.distributed.delta import DeltaSequenceError

        reg = MetricsRegistry()
        store = InMemoryStore(name="s", metrics=reg)
        pub = DeltaPublisher("site-a")
        first = pub.prepare(encode_bucket({}))
        store.append_delta("site-a", first)
        pub.commit(first)
        appends = reg.get("repro_store_appends_total")
        assert appends.value(store="s", kind="snapshot") == 1
        with pytest.raises(DeltaSequenceError):
            store.get_deltas("site-a", 99, first["stream"])
        assert reg.get("repro_store_delta_gaps_total").value(store="s") == 1

    def test_replicated_store_failover_and_heal_counters(self):
        reg = MetricsRegistry()
        r1 = InMemoryStore(name="r1")
        r2 = InMemoryStore(name="r2")
        rs = ReplicatedStore([r1, r2], metrics=reg)
        # Fixed cadence: the heal-on-write path below needs an ordinary
        # delta to hit the stale replica (adaptive cadence would turn
        # the tiny-bucket clear into a checkpoint, which heals nothing).
        pub = DeltaPublisher("site-a", adaptive=False)
        delta = pub.prepare(encode_bucket({}))
        rs.append_delta("site-a", delta)
        pub.commit(delta)
        # r1 goes down: reads fail over to r2 and count the skip.
        r1.set_available(False)
        rs.get_state("site-a")
        assert reg.get("repro_replica_failovers_total").value(replica="r1") == 1
        # r1 misses a write, comes back stale; the next write heals it.
        delta = pub.prepare(encode_bucket({"t1": waiting_on("e", 1, e=1)}))
        rs.append_delta("site-a", delta)
        pub.commit(delta)
        r1.set_available(True)
        delta = pub.prepare(encode_bucket({}))
        rs.append_delta("site-a", delta)
        pub.commit(delta)
        heals = reg.get("repro_replica_heals_total")
        assert heals.value(replica="r1", trigger="write") == 1


class TestDistributedWiring:
    def test_sync_round_counters(self):
        reg = MetricsRegistry()
        store = InMemoryStore()
        pub = DeltaPublisher("site-a")
        delta = pub.prepare(encode_bucket({"t1": waiting_on("e", 1, e=1)}))
        store.append_delta("site-a", delta)
        pub.commit(delta)
        checker = DistributedChecker(store, metrics=reg)
        checker.check_global()
        syncs = reg.get("repro_distributed_sync_total")
        assert syncs.value(event="rounds") == 1
        assert syncs.value(event="deltas_applied") == 1
        assert reg.get("repro_distributed_sync_lag").count_of() == 1


class TestReplayWiring:
    def corpus_member(self, name="cycle-L2-F1-S1-R1-dl.jsonl"):
        import pathlib

        return pathlib.Path(__file__).parent.parent / "trace" / "corpus" / name

    def test_result_metrics_carries_engine_and_checker_series(self):
        from repro.trace.replay import replay

        result = replay(self.corpus_member())
        reg = result.metrics
        records = reg.get("repro_replay_records_total")
        assert records.total() == result.records_processed
        assert reg.get("repro_replay_checks_total").total() == result.checks_run
        assert reg.get("repro_replay_reports_total").total() == len(result.reports)
        assert reg.get("repro_checks_total").total() == result.stats.checks

    def test_incremental_metrics_cover_both_checkers_once(self):
        from repro.trace.replay import replay

        plain = replay(self.corpus_member())
        incr = replay(self.corpus_member(), incremental=True)
        assert (
            incr.metrics.get("repro_checks_total").total()
            == incr.stats.checks
            == plain.stats.checks
        )

    @pytest.mark.parametrize("incremental", [False, True])
    @pytest.mark.parametrize("member", [
        "cycle-L2-F1-S1-R1-dl.jsonl",
        # Distributed: block records reach ``local``, publish_delta
        # records ``remote`` — both checkers record into the registry.
        "recorded-cluster-delta-dl.trace",
    ])
    def test_replay_has_one_registry_from_its_first_record(
        self, monkeypatch, member, incremental
    ):
        from repro.trace.replay import replay

        built, merges = [], []
        init, merge = MetricsRegistry.__init__, MetricsRegistry.merge

        def counting_init(self):
            built.append(self)
            init(self)

        def counting_merge(self, other):
            merges.append(other)
            merge(self, other)

        monkeypatch.setattr(MetricsRegistry, "__init__", counting_init)
        monkeypatch.setattr(MetricsRegistry, "merge", counting_merge)
        result = replay(self.corpus_member(member), incremental=incremental)
        assert len(built) == 1 and built[0] is result.metrics
        assert merges == []
        assert (
            result.stats.checks
            == result.metrics.get("repro_checks_total").total()
            == result.checks_run
        )
