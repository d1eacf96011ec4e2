"""Stateful differential tests: IncrementalChecker vs from-scratch.

The delta contract's acceptance property is *pointwise* equivalence:
after every single state change, the incremental checker's answer —
report or no report — must equal the classic
checker's on the same state.  These tests drive both checkers through

* every trace in the checked-in regression corpus (the real workloads:
  cycle, churn, aio, bounded, knot families plus live recordings), and
* randomised delta sequences (random statuses over small task/phaser
  pools, random withdrawals and re-publications),

comparing canonical reports at every cadence point.
"""

from __future__ import annotations

import pathlib
import random

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.events import BlockedStatus, Event, waiting_on
from repro.core.incremental import IncrementalChecker
from repro.core.selection import GraphModel
from repro.distributed.delta import make_snapshot
from repro.trace.events import RecordKind
from repro.trace.parallel import discover_traces
from repro.trace.replay import replay
from repro.trace.stream import iter_load

CORPUS = pathlib.Path(__file__).parent.parent / "trace" / "corpus"


def corpus_files():
    return discover_traces(CORPUS)


def drive_both(records, model=GraphModel.AUTO):
    """Feed the same delta stream to both checkers; compare after every
    state change.  Returns how many comparisons ran."""
    scratch = DeadlockChecker(model=model)
    incremental = IncrementalChecker(model=model)
    compared = 0
    for rec in records:
        if rec.kind is RecordKind.BLOCK:
            scratch.set_blocked(rec.task, rec.status)
            incremental.set_blocked(rec.task, rec.status)
        elif rec.kind is RecordKind.UNBLOCK:
            scratch.clear(rec.task)
            incremental.clear(rec.task)
        else:
            continue
        assert incremental.check() == scratch.check()
        compared += 1
    return compared


class TestCorpusDifferential:
    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_reports_identical_at_every_cadence_point(self, path):
        """Block/unblock traces: drive both checkers record by record.
        Publication traces exercise the
        engine-level view derivation instead (their records carry no
        per-task delta to hand a checker directly)."""
        records = list(iter_load(path))
        if any(r.kind is RecordKind.PUBLISH_DELTA for r in records):
            a = replay(records, check_every=1, incremental=False)
            b = replay(records, check_every=1)
            assert a.reports == b.reports
            return
        assert drive_both(records) > 0

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    @pytest.mark.parametrize("cadence", [7, 64])
    def test_batch_window_reports_identical(self, cadence, path):
        """Above cadence 1 the records between two checks reach the
        incremental engine as one batch window, where a component that
        runs over its Pearce-Kelly budget defers to a scoped re-partition
        at the check (four corpus members take that path at either
        cadence).  The reports, and the checks that produced them, must
        still be the from-scratch engine's."""
        records = list(iter_load(path))
        a = replay(records, check_every=cadence, incremental=False)
        b = replay(records, check_every=cadence)
        assert a.reports == b.reports
        assert a.checks_run == b.checks_run
        assert a.records_processed == b.records_processed

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    @pytest.mark.parametrize("cadence", [1, 7])
    def test_maintained_wfg_extraction_reports_identical(self, cadence, path):
        """Under the fixed WFG model a cyclic check is answered from the
        maintained partition, never by the snapshot-and-rebuild
        fallback.  On every corpus member, in one-op and seven-op
        windows, that path still gives the from-scratch engine's
        reports and checks."""
        records = list(iter_load(path))
        a = replay(records, model=GraphModel.WFG, check_every=cadence,
                   incremental=False)
        b = replay(records, model=GraphModel.WFG, check_every=cadence)
        assert a.reports == b.reports
        assert a.checks_run == b.checks_run
        fallbacks = b.metrics.get("repro_incremental_fallback_checks_total")
        assert fallbacks.value() == 0

    @pytest.mark.parametrize(
        "model", [GraphModel.WFG, GraphModel.SG], ids=str
    )
    def test_fixed_model_reports_identical(self, model):
        """The incremental oracle is model-independent (Theorem 4.8):
        fixed-WFG and fixed-SG configurations fall back to identical
        reports too."""
        records = list(iter_load(CORPUS / "aio-cycle-N8-dl.jsonl"))
        drive_both(records, model=model)


def random_status(rng, phasers):
    """A random blocked status over a small phaser pool."""
    waits = frozenset(
        Event(rng.choice(phasers), rng.randint(1, 3))
        for _ in range(rng.randint(1, 2))
    )
    registered = {
        p: rng.randint(0, 3)
        for p in rng.sample(phasers, rng.randint(0, len(phasers)))
    }
    return BlockedStatus(waits=waits, registered=registered)


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_delta_sequences(self, seed):
        rng = random.Random(seed)
        tasks = [f"t{i}" for i in range(8)]
        phasers = [f"p{i}" for i in range(4)]
        scratch = DeadlockChecker()
        incremental = IncrementalChecker()
        blocked = set()
        for _ in range(250):
            op = rng.random()
            if op < 0.55 or not blocked:
                task = rng.choice(tasks)
                status = random_status(rng, phasers)
                scratch.set_blocked(task, status)
                incremental.set_blocked(task, status)
                blocked.add(task)
            else:
                task = rng.choice(sorted(blocked))
                scratch.clear(task)
                incremental.clear(task)
                blocked.discard(task)
            assert incremental.check() == scratch.check()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_avoidance_sequences(self, seed):
        """check_before_block: refusals, take-backs and accepted
        publishes must leave both checkers in equivalent states
        throughout."""
        rng = random.Random(1000 + seed)
        tasks = [f"t{i}" for i in range(6)]
        phasers = [f"p{i}" for i in range(3)]
        scratch = DeadlockChecker()
        incremental = IncrementalChecker()
        for _ in range(150):
            if rng.random() < 0.7:
                task = rng.choice(tasks)
                status = random_status(rng, phasers)
                r1 = scratch.check_before_block(task, status)
                r2 = incremental.check_before_block(task, status)
                assert r1 == r2
            else:
                task = rng.choice(tasks)
                scratch.clear(task)
                incremental.clear(task)
            assert incremental.check() == scratch.check()

    def test_republication_keeps_states_aligned(self):
        """The avoidance take-back's write: publishing the prior status
        object again must put it (and its edges) back."""
        scratch = DeadlockChecker()
        incremental = IncrementalChecker()
        prior = BlockedStatus(
            waits=frozenset({Event("p", 1)}), registered={"p": 1, "q": 0}
        )
        for checker in (scratch, incremental):
            checker.set_blocked("a", prior)
            checker.set_blocked(
                "a",
                BlockedStatus(waits=frozenset({Event("z", 1)}), registered={}),
            )
            checker.set_blocked("a", prior)
            checker.set_blocked(
                "b",
                BlockedStatus(
                    waits=frozenset({Event("q", 1)}), registered={"p": 0, "q": 1}
                ),
            )
        assert incremental.check() == scratch.check()
        assert incremental.check() is not None


class TestForeignStoreWrites:
    """Producers that write to the dependency store directly (another
    checker sharing it, the store's own methods) are heard by the
    maintained graph — never silently missed."""

    def knot(self):
        return {
            "a": BlockedStatus(
                waits=frozenset({Event("p", 1)}), registered={"p": 1, "q": 0}
            ),
            "b": BlockedStatus(
                waits=frozenset({Event("q", 1)}), registered={"p": 0, "q": 1}
            ),
        }

    def test_direct_dependency_writes_are_resynced(self):
        checker = IncrementalChecker()
        for task, status in self.knot().items():
            checker.dependency.set_blocked(task, status)
        scratch = DeadlockChecker()
        for task, status in self.knot().items():
            scratch.dependency.set_blocked(task, status)
        assert checker.check() == scratch.check()
        assert checker.check() is not None

    def test_direct_republication_of_a_blocked_task_closing_a_cycle(self):
        """Same blocked count, an earlier status object: the one write
        the old (generation, count) fingerprint could not see."""
        checker = IncrementalChecker(model=GraphModel.WFG)
        oracle = DeadlockChecker(
            model=GraphModel.WFG, dependency=checker.dependency
        )
        earlier = waiting_on("q", 1, q=1, p=0)
        checker.set_blocked("t2", earlier)
        checker.clear("t2")
        checker.set_blocked("t1", waiting_on("p", 1, p=1, q=0))
        checker.set_blocked("t2", waiting_on("r", 1, r=1))
        assert checker.check() is None and oracle.check() is None
        checker.dependency.set_blocked("t2", earlier)
        assert oracle.check() is not None
        assert checker.check() == oracle.check()

    def test_direct_clear_then_republication_of_an_unblocked_task(self):
        """One task out, another in with an earlier status object: the
        blocked count reads as before."""
        checker = IncrementalChecker(model=GraphModel.WFG)
        oracle = DeadlockChecker(
            model=GraphModel.WFG, dependency=checker.dependency
        )
        earlier = waiting_on("q", 1, q=1, p=0)
        checker.set_blocked("t3", earlier)
        checker.clear("t3")
        checker.set_blocked("t1", waiting_on("p", 1, p=1, q=0))
        checker.set_blocked("t2", waiting_on("r", 1, r=1))
        assert checker.check() is None
        checker.dependency.clear("t2")
        checker.dependency.set_blocked("t3", earlier)
        assert oracle.check() is not None
        assert checker.check() == oracle.check()

    def test_clear_all_behind_the_checkers_back(self):
        checker = IncrementalChecker()
        for task, status in self.knot().items():
            checker.set_blocked(task, status)
        assert checker.check() is not None
        checker.dependency.clear_all()
        assert checker.check() is None
        assert checker.wfg_edge_count == 0

    def test_pl_interpreter_accepts_an_incremental_checker(self):
        """The interpreter publishes each step's change of phi(S)
        through ``apply_batch`` — an incremental checker must be a true
        drop-in there."""
        from repro.pl.interpreter import Interpreter
        from repro.pl.programs import running_example
        from repro.pl.state import State

        a = Interpreter(seed=7, checker=DeadlockChecker()).run(
            State.initial(running_example(I=3, J=1))
        )
        b = Interpreter(seed=7, checker=IncrementalChecker()).run(
            State.initial(running_example(I=3, J=1))
        )
        assert a.is_deadlocked and b.is_deadlocked
        assert a.reports and b.reports
        assert a.reports[0].cycle == b.reports[0].cycle

    def test_shared_store_between_two_checkers(self):
        from repro.core.dependency import ResourceDependency

        store = ResourceDependency()
        writer = DeadlockChecker(dependency=store)
        reader = IncrementalChecker(dependency=store)
        for task, status in self.knot().items():
            writer.set_blocked(task, status)
        assert reader.check() == writer.check()
        writer.clear("a")
        assert reader.check() is None


class TestTransientPublishConflicts:
    """Cross-site duplication is rejected at check time — like the
    from-scratch merge — so an overlap resolving within one cadence
    window replays identically in both engines."""

    def records(self):
        from repro.trace import events as ev
        from repro.trace.events import status_to_obj
        from repro.core.events import waiting_on

        blob = status_to_obj(waiting_on("p", 1, p=1))
        return [
            ev.publish_delta(0, "A", make_snapshot(1, {"t1": blob}, "A")),
            ev.publish_delta(1, "B", make_snapshot(1, {"t1": blob}, "B")),
            ev.publish_delta(2, "A", make_snapshot(2, {}, "A")),
        ]

    def test_transient_overlap_replays_in_both_engines(self):
        recs = self.records()
        a = replay(recs, check_every=10, incremental=False)
        b = replay(recs, check_every=10)
        assert a.reports == b.reports
        assert a.checks_run == b.checks_run

    def test_persisting_overlap_raises_identically(self):
        recs = self.records()[:2]
        errors = []
        for incremental in (False, True):
            with pytest.raises(ValueError) as exc:
                replay(recs, check_every=1, incremental=incremental)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert "several sites" in errors[0]

    def test_survivor_status_wins_after_resolution(self):
        """While conflicted the delta state is last-writer; resolution
        must re-apply the surviving site's status, not keep the loser's."""
        from repro.trace import events as ev
        from repro.trace.events import status_to_obj
        from repro.core.events import waiting_on

        a_blob = status_to_obj(waiting_on("p", 1, p=1, q=0))
        b_blob = status_to_obj(waiting_on("q", 1, p=0, q=1))
        recs = [
            ev.publish_delta(
                0, "A", make_snapshot(1, {"t1": a_blob, "t2": b_blob}, "A")
            ),
            # A conflicting duplicate, then B retracts: A's t2 must win
            # again.
            ev.publish_delta(1, "B", make_snapshot(1, {"t2": a_blob}, "B")),
            ev.publish_delta(2, "B", make_snapshot(2, {}, "B")),
        ]
        x = replay(recs, check_every=5, incremental=False)
        y = replay(recs, check_every=5)
        assert x.reports == y.reports
        assert x.deadlocked  # A's pair is the crossed knot


class TestIncrementalExtraction:
    """The WFG-model checker extracts reports from the maintained
    partition — no snapshot, no classic rebuild — byte-identically."""

    def knot(self):
        return {
            "a": BlockedStatus(
                waits=frozenset({Event("p", 1)}), registered={"p": 1, "q": 0}
            ),
            "b": BlockedStatus(
                waits=frozenset({Event("q", 1)}), registered={"p": 0, "q": 1}
            ),
        }

    def test_wfg_report_skips_the_classic_build(self, monkeypatch):
        import repro.core.checker as checker_mod

        incremental = IncrementalChecker(model=GraphModel.WFG)
        for task, status in self.knot().items():
            incremental.set_blocked(task, status)
        calls = []
        original = checker_mod.build_graph
        monkeypatch.setattr(
            checker_mod, "build_graph",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        report = incremental.check()
        assert report is not None
        assert calls == []  # extraction came from the partition
        assert incremental.incremental_extractions == 1

    def test_wfg_extraction_is_epoch_cached_across_churn(self):
        incremental = IncrementalChecker(model=GraphModel.WFG)
        for task, status in self.knot().items():
            incremental.set_blocked(task, status)
        first = incremental.check()
        assert first is not None
        done = incremental.incremental_extractions
        for i in range(4):
            # Churn an unrelated component: the knot's extraction must
            # be served from the per-component cache.
            incremental.set_blocked(
                f"x{i}",
                BlockedStatus(
                    waits=frozenset({Event(f"r{i}", 1)}), registered={}
                ),
            )
            assert incremental.check() == first
        assert incremental.incremental_extractions == done

    def test_wfg_revalidate_matches_classic(self):
        scratch = DeadlockChecker(model=GraphModel.WFG)
        incremental = IncrementalChecker(model=GraphModel.WFG)
        for checker in (scratch, incremental):
            for task, status in self.knot().items():
                checker.set_blocked(task, status)
        assert incremental.check(revalidate=True) == scratch.check(revalidate=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_wfg_randomized_pointwise_identity(self, seed):
        """The extraction path under random churn: pointwise equality
        with the classic WFG checker after every delta."""
        rng = random.Random(7000 + seed)
        tasks = [f"t{i}" for i in range(8)]
        phasers = [f"p{i}" for i in range(4)]
        scratch = DeadlockChecker(model=GraphModel.WFG)
        incremental = IncrementalChecker(model=GraphModel.WFG)
        blocked = set()
        for _ in range(200):
            if rng.random() < 0.6 or not blocked:
                task = rng.choice(tasks)
                status = random_status(rng, phasers)
                scratch.set_blocked(task, status)
                incremental.set_blocked(task, status)
                blocked.add(task)
            else:
                task = rng.choice(sorted(blocked))
                scratch.clear(task)
                incremental.clear(task)
                blocked.discard(task)
            assert incremental.check() == scratch.check()
