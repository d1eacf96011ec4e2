"""Site tests: delta publishing/checking loops, de-dup, failures."""

from __future__ import annotations

import time

import pytest

from repro.core.events import waiting_on
from repro.distributed.delta import DeltaSequenceError, make_snapshot
from repro.distributed.site import Site
from repro.distributed.store import InMemoryStore
from repro.obs.registry import MetricsRegistry


def load_local_deadlock(site: Site) -> None:
    """Two tasks of this site in a crossed wait (via the checker API
    directly; runtime-driven variants live in test_places)."""
    dep = site.runtime.checker.dependency
    dep.set_blocked("a", waiting_on("p", 1, p=1, q=0))
    dep.set_blocked("b", waiting_on("q", 1, q=1, p=0))


class TestSynchronousRounds:
    def test_publish_then_check_detects(self):
        store = InMemoryStore()
        site = Site("s0", store, cancel_on_detect=False)
        load_local_deadlock(site)
        report = site.poll_detection()
        assert report is not None
        stream, seq, state = store.get_state("s0")  # the stream was published
        assert seq == 1 and set(state) == {"a", "b"}

    def test_first_publish_is_a_snapshot_then_deltas(self):
        store = InMemoryStore()
        site = Site("s0", store, cancel_on_detect=False)
        dep = site.runtime.checker.dependency
        dep.set_blocked("a", waiting_on("p", 1, p=1))
        site._publish_once()
        dep.set_blocked("b", waiting_on("q", 1, q=1))
        site._publish_once()
        objs = store.get_deltas("s0", 0)
        assert [o["kind"] for o in objs] == ["snapshot", "delta"]
        assert set(objs[1]["set"]) == {"b"}

    def test_unchanged_rounds_publish_nothing(self):
        reg = MetricsRegistry()
        store = InMemoryStore(metrics=reg)
        site = Site("s0", store, cancel_on_detect=False)
        load_local_deadlock(site)
        site._publish_once()
        ops = reg.get("repro_store_ops_total")
        puts = ops.value(store="store", op="put")
        assert puts == 1
        site._publish_once()
        site._publish_once()
        # nothing changed, nothing on the wire
        assert ops.value(store="store", op="put") == puts

    def test_duplicate_cycles_deduplicated(self):
        site = Site("s0", InMemoryStore(), cancel_on_detect=False)
        load_local_deadlock(site)
        assert site.poll_detection() is not None
        assert site.poll_detection() is None  # same cycle, not re-reported
        assert len(site.reports) == 1

    def test_callback(self):
        seen = []
        site = Site(
            "s0",
            InMemoryStore(),
            cancel_on_detect=False,
            on_deadlock=seen.append,
        )
        load_local_deadlock(site)
        site.poll_detection()
        assert len(seen) == 1

    def test_store_gap_heals_with_forced_checkpoint(self):
        """The publisher-gap fault path: the store lost the site's
        stream (a failover artefact), the next append raises a sequence
        gap, and the site responds with a full snapshot checkpoint
        instead of wedging."""
        store = InMemoryStore()
        site = Site("s0", store, cancel_on_detect=False)
        dep = site.runtime.checker.dependency
        dep.set_blocked("a", waiting_on("p", 1, p=1))
        site._publish_once()
        store.delete("s0")  # the store forgot us
        dep.set_blocked("b", waiting_on("q", 1, q=1))
        site._publish_once()  # delta seq 2 has no stream -> checkpoint
        stream, seq, state = store.get_state("s0")
        assert set(state) == {"a", "b"}
        objs = store.get_deltas("s0", seq - 1)
        assert objs[-1]["kind"] == "snapshot"

    def test_outage_does_not_burn_sequence_numbers(self):
        store = InMemoryStore()
        site = Site("s0", store, cancel_on_detect=False)
        dep = site.runtime.checker.dependency
        dep.set_blocked("a", waiting_on("p", 1, p=1))
        site._publish_once()
        store.set_available(False)
        dep.set_blocked("b", waiting_on("q", 1, q=1))
        with pytest.raises(Exception):
            site._publish_once()
        store.set_available(True)
        site._publish_once()  # the lost change re-derives, seq 2
        objs = store.get_deltas("s0", 1)
        assert [o["seq"] for o in objs] == [2]
        assert set(objs[0]["set"]) == {"b"}


class TestBackgroundLoops:
    def test_detects_in_background(self):
        store = InMemoryStore()
        with Site(
            "s0",
            store,
            check_interval_s=0.02,
            publish_interval_s=0.01,
            cancel_on_detect=False,
        ) as site:
            load_local_deadlock(site)
            deadline = time.time() + 5.0
            while not site.reports and time.time() < deadline:
                time.sleep(0.01)
        assert site.reports

    def test_first_round_runs_immediately(self):
        """The loop body runs once on start: a site is visible to the
        cluster well before one publish_interval_s has elapsed."""
        store = InMemoryStore()
        site = Site(
            "s0", store, publish_interval_s=30.0, check_interval_s=30.0
        )
        load_local_deadlock(site)
        site.start()
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if "s0" in store.delta_sites():
                    break
                time.sleep(0.005)
            assert "s0" in store.delta_sites()
        finally:
            site.stop(timeout=0.2)

    def test_store_outage_counted_and_survived(self):
        store = InMemoryStore()
        with Site(
            "s0", store, check_interval_s=0.01, publish_interval_s=0.01
        ) as site:
            store.set_available(False)
            time.sleep(0.1)
            assert site.publish_failures > 0 or site.check_failures > 0
            store.set_available(True)
            load_local_deadlock(site)
            deadline = time.time() + 5.0
            while not site.reports and time.time() < deadline:
                time.sleep(0.01)
            assert site.reports  # recovered after the outage

    def test_kill_leaves_stale_delta_stream(self):
        """The satellite fault path: abrupt death leaves the stream
        behind (exactly what a crashed machine leaves), and other
        checkers keep seeing its last published state."""
        store = InMemoryStore()
        site = Site("s0", store, publish_interval_s=0.01).start()
        load_local_deadlock(site)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                if store.get_state("s0")[2]:
                    break
            except DeltaSequenceError:
                pass
            time.sleep(0.005)
        site.kill()
        assert not site.alive
        assert "s0" in store.delta_sites()  # the crash leaves it behind
        stream, seq, state = store.get_state("s0")
        assert set(state) == {"a", "b"}
        # A peer checker still merges the dead site's statuses.
        from repro.distributed.detector import DistributedChecker

        peer = DistributedChecker(store)
        report = peer.check_global()
        assert report is not None and set(report.tasks) == {"a", "b"}

    def test_graceful_stop_withdraws_stream(self):
        store = InMemoryStore()
        site = Site("s0", store, publish_interval_s=0.01).start()
        time.sleep(0.05)
        site.stop()
        assert store.delta_sites() == []


class TestLoopFailureVisibility:
    """Regressions for the shutdown/liveness sweep: a wedged or dead
    loop must be *observable* — dirty stop flags, error slots, failure
    metrics — never silently swallowed."""

    def test_wedged_loop_body_makes_stop_dirty(self):
        import threading

        store = InMemoryStore()
        site = Site("s0", store, publish_interval_s=0.01)
        release = threading.Event()
        site._publish_once = release.wait  # a deliberately wedged body
        site.start()
        try:
            assert site.stop(timeout=0.1) is False  # dirty: logged, flagged
            assert not site.alive
        finally:
            release.set()
        # The wedged thread stayed tracked; once its body unblocks, a
        # later stop observes the clean exit.
        deadline = time.time() + 5.0
        while any(t.is_alive() for t in site._threads) and time.time() < deadline:
            time.sleep(0.01)
        assert site.stop(timeout=1.0) is True

    def test_clean_stop_returns_true(self):
        site = Site("s0", InMemoryStore(), publish_interval_s=0.01).start()
        time.sleep(0.03)
        assert site.stop() is True

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )  # the re-raise after recording is the contract under test
    def test_loop_death_recorded_in_error_slot_and_metric(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        store = InMemoryStore()
        site = Site("s0", store, publish_interval_s=0.01, metrics=registry)

        def boom():
            raise RuntimeError("synthetic publisher failure")

        site._publish_once = boom
        site.start()
        try:
            deadline = time.time() + 5.0
            while "publisher" not in site.loop_errors and time.time() < deadline:
                time.sleep(0.01)
            assert isinstance(site.loop_errors["publisher"], RuntimeError)
            # The failure is metered before the thread dies...
            assert site._m_publishes.value(site="s0", outcome="error") == 1
        finally:
            site.stop(timeout=1.0)
        # ... and an outage (StoreUnavailableError) still does NOT use
        # the error slot — it's tolerated, not fatal (pinned elsewhere:
        # test_store_outage_counted_and_survived).

    def test_outage_does_not_populate_error_slot(self):
        store = InMemoryStore()
        with Site(
            "s0", store, check_interval_s=0.01, publish_interval_s=0.01
        ) as site:
            store.set_available(False)
            # Give the publisher a change to push, so both loops hit
            # the dead store (an unchanged round never touches it).
            load_local_deadlock(site)
            deadline = time.time() + 5.0
            while (
                not (site.publish_failures and site.check_failures)
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert site.publish_failures > 0 and site.check_failures > 0
            assert site.loop_errors == {}  # tolerated, loops still alive
            store.set_available(True)
