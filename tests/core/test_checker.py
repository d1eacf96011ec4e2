"""Deadlock-checker tests: detection checks, avoidance checks, stats."""

from __future__ import annotations

from repro.core.checker import CheckStats, DeadlockChecker
from repro.core.dependency import ResourceDependency
from repro.core.events import Event, waiting_on
from repro.core.selection import GraphModel
from repro.obs.registry import MetricsRegistry


def deadlocked_checker(model=GraphModel.AUTO) -> DeadlockChecker:
    """Example 4.1 pre-loaded into a checker."""
    checker = DeadlockChecker(model=model)
    for i in (1, 2, 3):
        checker.set_blocked(f"t{i}", waiting_on("pc", 1, pc=1, pb=0))
    checker.set_blocked("t4", waiting_on("pb", 1, pc=0, pb=1))
    return checker


class TestDetection:
    def test_finds_example_41(self):
        report = deadlocked_checker().check()
        assert report is not None
        assert set(report.tasks) == {"t1", "t2", "t3", "t4"}
        assert set(report.events) == {Event("pc", 1), Event("pb", 1)}
        assert not report.avoided

    def test_all_models_find_it(self):
        for model in (GraphModel.WFG, GraphModel.SG, GraphModel.AUTO):
            report = deadlocked_checker(model).check()
            assert report is not None
            assert report.model_used in (GraphModel.WFG, GraphModel.SG)

    def test_no_deadlock_without_cycle(self):
        checker = DeadlockChecker()
        checker.set_blocked("t1", waiting_on("p", 1, p=1))
        assert checker.check() is None

    def test_empty_state(self):
        assert DeadlockChecker().check() is None

    def test_revalidation_discards_stale_cycle(self):
        checker = deadlocked_checker()
        snapshot = checker.dependency.snapshot()
        # t4 unblocks after the snapshot was taken.
        checker.clear("t4")
        assert checker.check(snapshot=snapshot, revalidate=True) is None
        # Without revalidation the stale snapshot still reports.
        assert checker.check(snapshot=snapshot, revalidate=False) is not None

    def test_report_describes_cycle(self):
        report = deadlocked_checker().check()
        text = report.describe()
        assert "deadlock detected" in text
        assert "cycle" in text


class TestAvoidance:
    def test_safe_block_publishes_status(self):
        checker = DeadlockChecker()
        status = waiting_on("p", 1, p=1)
        assert checker.check_before_block("t1", status) is None
        assert checker.dependency.is_current("t1", status)
        assert checker.dependency.blocked_count() == 1

    def test_deadlocking_block_is_refused_and_withdrawn(self):
        checker = DeadlockChecker()
        for i in (1, 2, 3):
            checker.set_blocked(f"t{i}", waiting_on("pc", 1, pc=1, pb=0))
        report = checker.check_before_block(
            "t4", waiting_on("pb", 1, pc=0, pb=1)
        )
        assert report is not None
        assert report.avoided
        # The doomed status was withdrawn: t4 is not recorded as blocked.
        assert checker.dependency.blocked_count() == 3
        # And the remaining state is cycle-free.
        assert checker.check() is None

    def test_avoidance_cycle_involves_blocking_task(self):
        checker = DeadlockChecker(model=GraphModel.WFG)
        checker.set_blocked("a", waiting_on("p", 1, p=1, q=0))
        report = checker.check_before_block(
            "b", waiting_on("q", 1, q=1, p=0)
        )
        assert report is not None
        assert "b" in report.tasks

    def test_sequential_blocks_last_one_loses(self):
        """Every block is vetted, so the task completing the cycle gets
        the report, regardless of order."""
        checker = DeadlockChecker()
        r1 = checker.check_before_block("a", waiting_on("p", 1, p=1, q=0))
        assert r1 is None
        r2 = checker.check_before_block("b", waiting_on("q", 1, q=1, p=0))
        assert r2 is not None


class TestStats:
    def test_counts_checks_and_edges(self):
        checker = deadlocked_checker()
        checker.check()
        checker.check()
        stats = checker.stats
        assert stats.checks == 2
        assert stats.cycles_found == 2
        # Two identical checks: both contributed to the running sum.
        assert stats.edges_max > 0
        assert stats.edges_total == stats.edges_max * 2
        assert sum(stats.model_counts.values()) == 2
        assert stats.mean_edges > 0
        assert stats.edges_max >= stats.mean_edges

    def test_model_histogram(self):
        checker = deadlocked_checker(GraphModel.SG)
        checker.check()
        hist = checker.stats.model_counts
        assert hist[GraphModel.SG] == 1

    def test_merge(self):
        c1 = deadlocked_checker()
        c2 = deadlocked_checker()
        c1.check()
        c2.check()
        total = MetricsRegistry()
        total.merge(c1.stats.metrics)
        total.merge(c2.stats.metrics)
        assert CheckStats(total).checks == 2


class TestSharedDependency:
    def test_two_checkers_one_store(self):
        """Distributed sites share one dependency store through separate
        checkers (Section 5.2)."""
        store = ResourceDependency()
        site_a = DeadlockChecker(dependency=store)
        site_b = DeadlockChecker(dependency=store)
        site_a.set_blocked("a", waiting_on("p", 1, p=1, q=0))
        site_b.set_blocked("b", waiting_on("q", 1, q=1, p=0))
        assert site_a.check() is not None
        assert site_b.check() is not None
