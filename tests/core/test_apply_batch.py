"""apply_batch property tests: one window per batch == one per op.

A window is the span between two queries: the maintained graph prices
its upkeep over it (rent Pearce-Kelly per edge, buy one scoped
resolution once a component overspends) and a query ends it.
Applying an ordered delta sequence through one ``apply_batch`` call and
querying after it must be *observationally equivalent* to writing it
one ``set_blocked``/``clear`` at a time with a query after every op:
the same final store state, the same verdicts and canonical reports,
and the same ``repro_incremental_delta_ops_total`` accounting — only
the amount of graph maintenance paid may differ.  These tests drive
randomised op sequences through one checker per strategy, slicing the
stream into random batch sizes, and compare at every batch boundary.
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import BlockedStatus, Event, waiting_on
from repro.core.incremental import IncrementalChecker
from repro.core.selection import GraphModel
from repro.trace.events import report_to_obj

OPS_METRIC_LABELS = ("set_blocked", "clear")


def random_status(rng, phasers):
    waits = frozenset(
        Event(rng.choice(phasers), rng.randint(1, 3))
        for _ in range(rng.randint(1, 2))
    )
    registered = {
        p: rng.randint(0, 3)
        for p in rng.sample(phasers, rng.randint(0, len(phasers)))
    }
    return BlockedStatus(waits=waits, registered=registered)


def random_ops(rng, count, tasks, phasers):
    """A random ``(op, task, status)`` sequence for apply_batch; now and
    then a task's first status object is published again."""
    ops = []
    blocked = set()
    earlier = {}
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6 or not blocked:
            task = rng.choice(tasks)
            status = random_status(rng, phasers)
            ops.append(("set", task, status))
            blocked.add(task)
            earlier.setdefault(task, status)
        elif roll < 0.85:
            task = rng.choice(sorted(blocked))
            ops.append(("clear", task, None))
            blocked.discard(task)
        else:
            task = rng.choice(sorted(earlier))
            ops.append(("set", task, earlier[task]))
            blocked.add(task)
    return ops


def chain_ops(rng, count, n):
    """Sparse ops: task ``i`` owns phaser ``p{i}`` and waits on one
    other task's, mostly its successor's — long acyclic chains arriving
    in random order (Pearce-Kelly's costly case), closed into rings now
    and then, broken by clears."""
    ops = []
    blocked = set()
    for _ in range(count):
        if rng.random() < 0.7 or not blocked:
            i = rng.randrange(n)
            j = (i + 1) % n if rng.random() < 0.85 else rng.randrange(n)
            status = waiting_on(f"p{j}", 1, **{f"p{j}": 1, f"p{i}": 0})
            ops.append(("set", f"t{i:02}", status))
            blocked.add(i)
        else:
            i = rng.choice(sorted(blocked))
            ops.append(("clear", f"t{i:02}", None))
            blocked.discard(i)
    return ops


def apply_stepwise(checker, ops):
    """One write at a time, each its own window: a query after every op."""
    for op, task, status in ops:
        if op == "set":
            checker.set_blocked(task, status)
        else:
            checker.clear(task)
        checker.check()


def delta_op_totals(checker):
    return {
        label: checker.metrics.get("repro_incremental_delta_ops_total").value(op=label)
        for label in OPS_METRIC_LABELS
    }


def assert_checkers_equivalent(batched, stepwise):
    assert batched.check() == stepwise.check()
    assert batched.wfg_edge_count == stepwise.wfg_edge_count
    assert batched.mutation_epoch == stepwise.mutation_epoch
    assert delta_op_totals(batched) == delta_op_totals(stepwise)


class TestApplyBatchEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_batches_match_stepwise(self, seed):
        rng = random.Random(seed)
        tasks = [f"t{i}" for i in range(8)]
        phasers = [f"p{i}" for i in range(4)]
        ops = random_ops(rng, 200, tasks, phasers)
        batched = IncrementalChecker()
        stepwise = IncrementalChecker()
        pos = 0
        while pos < len(ops):
            size = rng.randint(1, 12)
            chunk = ops[pos:pos + size]
            pos += size
            batched.apply_batch(chunk)
            apply_stepwise(stepwise, chunk)
            assert_checkers_equivalent(batched, stepwise)

    @pytest.mark.parametrize("window", [1, 2, 8, 64])
    @pytest.mark.parametrize("seed", range(2))
    def test_fixed_windows_match_stepwise(self, seed, window):
        """Windows from one op (every violating edge runs Pearce-Kelly
        in place) to 64 (a chain component runs over its budget mid-way
        and the rest of the window defers to the check): whatever
        maintenance a window ends up paying, the reports are the
        stepwise ones, field for field."""
        rng = random.Random(7015 + seed)
        ops = chain_ops(rng, 768, 48)
        batched = IncrementalChecker()
        stepwise = IncrementalChecker()
        verdicts = set()
        for pos in range(0, len(ops), window):
            chunk = ops[pos:pos + window]
            batched.apply_batch(chunk)
            apply_stepwise(stepwise, chunk)
            a, b = batched.check(), stepwise.check()
            assert (a and report_to_obj(a)) == (b and report_to_obj(b))
            assert_checkers_equivalent(batched, stepwise)
            verdicts.add(a is not None)
        assert verdicts == {False, True}, "one-sided sequence; weak test"

    @pytest.mark.parametrize("seed", range(4))
    def test_whole_stream_as_one_batch(self, seed):
        """The extreme slicing: the entire op stream in a single call."""
        rng = random.Random(100 + seed)
        tasks = [f"t{i}" for i in range(6)]
        phasers = [f"p{i}" for i in range(3)]
        ops = random_ops(rng, 150, tasks, phasers)
        batched = IncrementalChecker()
        stepwise = IncrementalChecker()
        batched.apply_batch(ops)
        apply_stepwise(stepwise, ops)
        assert_checkers_equivalent(batched, stepwise)

    def test_empty_batch_is_a_noop(self):
        checker = IncrementalChecker()
        before = checker.mutation_epoch
        checker.apply_batch([])
        assert checker.mutation_epoch == before
        assert delta_op_totals(checker) == {"set_blocked": 0, "clear": 0}

    def test_unknown_op_raises_and_accounts_partial_batch(self):
        """A failing op mid-batch must not lose the ops already applied
        (the per-op path counts before applying, so accounting matches)
        and must leave the checker usable for later calls."""
        checker = IncrementalChecker()
        status = BlockedStatus(
            waits=frozenset({Event("p", 1)}), registered={"p": 1}
        )
        with pytest.raises(ValueError, match="unknown batch op"):
            checker.apply_batch([
                ("set", "a", status),
                ("frobnicate", "b", None),
            ])
        assert delta_op_totals(checker)["set_blocked"] == 1
        checker.apply_batch([("clear", "a", None)])
        assert checker.check() is None

    @pytest.mark.parametrize("seed", range(3))
    def test_batches_against_deadlock_traces(self, seed):
        """Sequences biased to build waits-for knots: reports (not just
        verdict booleans) must match stepwise application exactly."""
        rng = random.Random(500 + seed)
        tasks = [f"t{i}" for i in range(5)]
        phasers = [f"p{i}" for i in range(2)]  # tiny pool: knots likely
        ops = random_ops(rng, 120, tasks, phasers)
        batched = IncrementalChecker()
        stepwise = IncrementalChecker()
        deadlocks = 0
        pos = 0
        while pos < len(ops):
            chunk = ops[pos:pos + rng.randint(2, 10)]
            pos += len(chunk)
            batched.apply_batch(chunk)
            apply_stepwise(stepwise, chunk)
            a, b = batched.check(), stepwise.check()
            assert a == b
            deadlocks += a is not None
        assert deadlocks > 0, "sequence never deadlocked; weak test"


def reverse_chain(n):
    """Statuses ``t{i} -> t{i-1}`` in arrival order: each newcomer is
    latest in the maintained order and points at the whole chain so
    far, Pearce-Kelly's worst case (~n^2/2 visits maintained eagerly)."""
    yield "t0", waiting_on("root", 1, p0=0)
    for i in range(1, n):
        yield f"t{i}", waiting_on(f"p{i - 1}", 1, **{f"p{i}": 0})


def scc_work(checker, kind):
    return checker.metrics.get("repro_scc_work_total").value(kind=kind)


class TestWritesBetweenQueries:
    """Plain writes with no query in between share one window, whoever
    makes them: no ``apply_batch`` is needed to bound their upkeep."""

    def test_query_free_reverse_chain_costs_linear_visits(self):
        n = 2000
        checker = IncrementalChecker()
        for task, status in reverse_chain(n):
            checker.set_blocked(task, status)
        assert scc_work(checker, "pk_visits") <= 4 * n
        assert checker.wfg_edge_count == n - 1
        assert checker.check() is None
        assert scc_work(checker, "resolves") <= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_query_free_churn_keeps_charges_to_live_labels(self, seed):
        """A checker that is never queried (replay's local one once
        publications arrive) holds a charge only for a live component."""
        rng = random.Random(4200 + seed)
        checker = IncrementalChecker()
        checker.apply_batch(chain_ops(rng, 6000, 48))
        scc = checker._scc
        assert len(scc._charge) <= len(scc._members)
        assert set(scc._charge) <= set(scc._members)


class TestPlainCheckerApplyBatch:
    """The hoisted surface: :class:`DeadlockChecker` takes the same op
    tuples through a plain loop, so one feeding path serves both checker
    classes — and its verdicts are the incremental engine's oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_plain_loop_matches_stepwise_and_incremental(self, seed):
        from repro.core.checker import DeadlockChecker

        rng = random.Random(900 + seed)
        tasks = [f"t{i}" for i in range(5)]
        phasers = [f"p{i}" for i in range(2)]
        ops = random_ops(rng, 120, tasks, phasers)
        batched, stepwise = DeadlockChecker(), DeadlockChecker()
        incremental = IncrementalChecker()
        pos = 0
        while pos < len(ops):
            chunk = ops[pos:pos + rng.randint(1, 10)]
            pos += len(chunk)
            batched.apply_batch(chunk)
            incremental.apply_batch(chunk)
            apply_stepwise(stepwise, chunk)
            assert (batched.dependency.snapshot().statuses
                    == stepwise.dependency.snapshot().statuses)
            assert batched.check() == stepwise.check() == incremental.check()

    def test_unknown_op_raises_after_the_applied_prefix(self):
        from repro.core.checker import DeadlockChecker

        checker = DeadlockChecker()
        status = BlockedStatus(
            waits=frozenset({Event("p", 1)}), registered={"p": 1}
        )
        with pytest.raises(ValueError, match="unknown batch op"):
            checker.apply_batch([("set", "a", status), ("frobnicate", "b", None)])
        assert set(checker.dependency.snapshot().statuses) == {"a"}

    @pytest.mark.parametrize("model", list(GraphModel), ids=lambda m: m.value)
    def test_a_check_of_the_store_equals_a_check_of_any_permutation(self, model):
        """Without an explicit snapshot, ``check`` analyses the store;
        its report equals ``check(snapshot=…)`` of every permutation of
        the same statuses — a report is a function of the blocked set."""
        from itertools import permutations

        from repro.core.checker import DeadlockChecker
        from repro.core.dependency import DependencySnapshot

        knot = {
            "c": waiting_on("r", 1, r=1, p=0),
            "a": waiting_on("p", 1, p=1, q=0),
            "b": waiting_on("q", 1, q=1, r=0),
            "z": waiting_on("p", 1, p=1, s=0),
        }
        checker = DeadlockChecker(model=model)
        checker.apply_batch([("set", t, s) for t, s in knot.items()])
        report = checker.check()
        assert report is not None
        for order in permutations(knot):
            snapshot = DependencySnapshot(statuses={t: knot[t] for t in order})
            assert DeadlockChecker(model=model).check(snapshot=snapshot) == report
