"""The avoidance verdict by search: the work it does, who pays for the
index, and the race between two blocks that jointly close a cycle.

Work is pinned through ``stats.edges_total`` — under ``AUTO`` an
accepted block records the index edges its search examined — and
through the store's ``snapshot``: the accept path must build neither a
:class:`~repro.core.dependency.DependencySnapshot` nor a graph.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

import repro.core.dependency as dependency_module
from repro.aio.scenarios import barrier_rounds
from repro.core.checker import DeadlockChecker
from repro.core.dependency import ResourceDependency
from repro.core.events import BlockedStatus, Event, waiting_on
from repro.core.selection import GraphModel
from repro.trace.corpus import ScenarioSpec, scenario_trace
from repro.trace.replay import DETECTION, replay


def forbid_snapshots(checker: DeadlockChecker) -> None:
    def snapshot():
        raise AssertionError("the accept path built a DependencySnapshot")

    checker.dependency.snapshot = snapshot


def link(i: int) -> BlockedStatus:
    """Link ``i`` of a chain: waits on ``p{i+1}@1``, holds back ``p{i}@1``."""
    return BlockedStatus(
        waits=frozenset({Event(f"p{i + 1}", 1)}), registered={f"p{i}": 0}
    )


class TestWorkPerCheck:
    def test_barrier_straggler_examines_nothing(self):
        """The benchmark's own state: 127 of 128 members have arrived
        and wait for the next phase; the straggler blocks."""
        checker = DeadlockChecker()
        for i in range(127):
            checker.set_blocked(f"w{i}", waiting_on("bar", 7, bar=7))
        # Unvetted publications: one full check vouches for the state.
        assert checker.check_before_block("w127", waiting_on("bar", 7, bar=7)) is None
        checker.clear("w127")
        forbid_snapshots(checker)
        edges = checker.stats.edges_total
        for _ in range(50):
            status = waiting_on("bar", 7, bar=7)
            assert checker.check_before_block("w127", status) is None
            assert checker.dependency.is_current("w127", status)
            checker.clear("w127")
        assert checker.stats.edges_total == edges
        assert checker.stats.model_counts == {GraphModel.SG: 51}

    def test_barrier_with_stale_statuses_examines_one_edge(self):
        """Mid-release: woken members are still published at phase 7
        while the others already wait for phase 8 — identical statuses
        share an index entry, so the stale half costs one edge, not 63."""
        checker = DeadlockChecker()
        forbid_snapshots(checker)
        for i in range(63):
            assert checker.check_before_block(
                f"w{i}", waiting_on("bar", 7, bar=7)) is None
        for i in range(63, 127):
            assert checker.check_before_block(
                f"w{i}", waiting_on("bar", 8, bar=8)) is None
        edges = checker.stats.edges_total
        assert checker.check_before_block(
            "w127", waiting_on("bar", 8, bar=8)) is None
        assert checker.stats.edges_total - edges == 1

    def test_chain_examines_the_chain_and_refuses_only_the_closing_link(self):
        links = 1000
        checker = DeadlockChecker()
        snapshot = checker.dependency.snapshot
        forbid_snapshots(checker)
        for i in range(links):
            # Nothing is published downstream of link i yet.
            assert checker.check_before_block(f"t{i}", link(i)) is None
        assert checker.stats.edges_total == 0
        # A block at the head walks the whole chain and finds no way back.
        head = BlockedStatus(
            waits=frozenset({Event("p0", 1)}), registered={"side": 0})
        assert checker.check_before_block("head", head) is None
        assert checker.stats.edges_total == links
        checker.clear("head")
        # Closing the ring is refused, from the built graph ...
        checker.dependency.snapshot = snapshot
        closing = BlockedStatus(
            waits=frozenset({Event("p0", 1)}), registered={f"p{links}": 0})
        report = checker.check_before_block("closing", closing)
        assert len(report.tasks) == links + 1
        assert checker.dependency.get("closing") is None
        # ... and the store vouches for what is left: search again.
        forbid_snapshots(checker)
        edges = checker.stats.edges_total
        assert checker.check_before_block("head", head) is None
        assert checker.stats.edges_total - edges == links

    @pytest.mark.parametrize("model", [GraphModel.WFG, GraphModel.SG])
    def test_fixed_models_build_their_graph_on_every_check(self, model):
        checker = DeadlockChecker(model=model)
        straggler = waiting_on("elsewhere", 1, bar=6)
        assert checker.check_before_block("straggler", straggler) is None
        for i in range(9):
            assert checker.check_before_block(
                f"w{i}", waiting_on("bar", 7, bar=7)) is None
        assert checker.stats.model_counts == {model: 10}
        assert checker.stats.edges_total > 0
        assert checker.dependency.phase_index() is None


def run_barrier(runtime) -> None:
    async def main() -> None:
        for task in barrier_rounds(runtime, 8, 5):
            await task.wait(30)

    asyncio.run(main())


class TestWhoPaysForTheIndex:
    def test_detection_runtime_never_materialises_it(self, runtime_factory):
        runtime = runtime_factory("detection")
        run_barrier(runtime)
        assert runtime.checker.dependency.phase_index() is None

    def test_avoidance_runtime_does(self, runtime_factory):
        runtime = runtime_factory("avoidance")
        run_barrier(runtime)
        assert runtime.checker.dependency.phase_index() == {}
        assert runtime.stats.model_counts == {GraphModel.SG: runtime.stats.checks}

    @pytest.mark.parametrize("incremental", [False, True])
    def test_detection_replay_never_builds_one(self, monkeypatch, incremental):
        def index_statuses(statuses):
            raise AssertionError("a detection replay built a phase index")

        monkeypatch.setattr(dependency_module, "index_statuses", index_statuses)
        trace = scenario_trace(
            ScenarioSpec(cycle_len=4, fan_out=2, sites=1, rounds=3))
        outcome = replay(trace, mode=DETECTION, check_every=1,
                         incremental=incremental)
        assert outcome.reports and outcome.checks_run > 0


class TestRacingBlocks:
    """Pairs of threads, each pair closing its own two-phaser knot from
    both sides at once: whoever publishes second must be refused."""

    PAIRS = 4
    ROUNDS = 200

    @staticmethod
    def knot(pair: int):
        p, q = f"p{pair}", f"q{pair}"
        return (
            (f"a{pair}", waiting_on(p, 1, **{p: 1, q: 0})),
            (f"b{pair}", waiting_on(q, 1, **{p: 0, q: 1})),
        )

    def race(self, store: ResourceDependency, checker_for):
        """Run the rounds; per round, the refusals by pair.
        ``checker_for(side)`` supplies each thread's checker."""
        gate = threading.Barrier(2 * self.PAIRS + 1)
        refused = [[None, None] for _ in range(self.PAIRS)]
        rounds = []
        errors = []

        def side(pair: int, which: int) -> None:
            task, status = self.knot(pair)[which]
            checker = checker_for(2 * pair + which)
            try:
                for _ in range(self.ROUNDS):
                    gate.wait(30)
                    report = checker.check_before_block(task, status)
                    refused[pair][which] = report is not None
                    if report is not None and store.get(task) is not None:
                        errors.append(f"refused {task} is still published")
                    gate.wait(30)
            except Exception as err:  # surfaced by the main thread
                errors.append(repr(err))
                gate.abort()

        threads = [
            threading.Thread(target=side, args=(pair, which), daemon=True)
            for pair in range(self.PAIRS) for which in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(self.ROUNDS):
                gate.wait(30)  # release the round
                gate.wait(30)  # every verdict is in
                rounds.append([tuple(pair) for pair in refused])
                store.clear_all()
            for thread in threads:
                thread.join(30)
        except threading.BrokenBarrierError:
            pass
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        assert len(rounds) == self.ROUNDS
        return rounds

    def test_one_checker_refuses_exactly_one_of_each_pair(self):
        checker = DeadlockChecker()
        rounds = self.race(checker.dependency, lambda side: checker)
        for verdicts in rounds:
            for pair in verdicts:
                assert sorted(pair) == [False, True], rounds
        # One graph per refusal, none per accept: the store kept
        # vouching for its content across every refusal.
        refusals = self.PAIRS * self.ROUNDS
        assert checker.stats.cycles_found == refusals
        assert checker.stats.checks == 2 * refusals

    def test_checkers_sharing_one_store_never_accept_both(self):
        """No common avoidance lock: both sides may see each other and
        both be refused, but a jointly closed cycle is never admitted."""
        store = ResourceDependency()
        checkers = [DeadlockChecker(dependency=store)
                    for _ in range(2 * self.PAIRS)]
        rounds = self.race(store, checkers.__getitem__)
        for verdicts in rounds:
            for pair in verdicts:
                assert any(pair), rounds
