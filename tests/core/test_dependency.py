"""Unit tests for the resource-dependency store and snapshots."""

from __future__ import annotations

import threading

import pytest

from repro.core.dependency import ResourceDependency
from repro.core.events import Event, waiting_on


def example_41() -> ResourceDependency:
    """The paper's Example 4.1: three workers on pc@1, driver on pb@1."""
    dep = ResourceDependency()
    for i in (1, 2, 3):
        dep.set_blocked(f"t{i}", waiting_on("pc", 1, pc=1, pb=0))
    dep.set_blocked("t4", waiting_on("pb", 1, pc=0, pb=1))
    return dep


class TestStore:
    def test_set_and_clear(self):
        dep = ResourceDependency()
        dep.set_blocked("t", waiting_on("p", 1, p=1))
        assert dep.blocked_count() == 1
        dep.clear("t")
        assert dep.blocked_count() == 0

    def test_clear_unknown_is_noop(self):
        ResourceDependency().clear("ghost")

    def test_snapshot_is_isolated(self):
        dep = ResourceDependency()
        dep.set_blocked("t", waiting_on("p", 1, p=1))
        snap = dep.snapshot()
        dep.clear("t")
        assert "t" in snap.statuses  # the snapshot survived the clear

    def test_set_blocked_stores_the_object_and_counts_writes(self):
        dep = ResourceDependency()
        s1 = waiting_on("p", 1, p=1)
        assert dep.set_blocked("t", s1) == 1
        assert dep.get("t") is s1
        assert dep.set_blocked("u", waiting_on("p", 2, p=2)) == 2
        dep.clear("t")
        assert dep.set_blocked("t", s1) == 3

    def test_is_current_tracks_publications(self):
        dep = ResourceDependency()
        s1 = waiting_on("p", 1, p=1)
        dep.set_blocked("t", s1)
        assert dep.is_current("t", s1)
        s2 = waiting_on("p", 2, p=2)
        dep.set_blocked("t", s2)
        assert not dep.is_current("t", s1)
        assert dep.is_current("t", s2)
        dep.clear("t")
        assert not dep.is_current("t", s2)

    def test_currency_is_identity_not_equality(self):
        """An equal but new object replaces the old one; publishing the
        old object again makes it current again."""
        dep = ResourceDependency()
        old, new = waiting_on("p", 1, p=1), waiting_on("p", 1, p=1)
        assert old == new and old is not new
        dep.set_blocked("t", old)
        dep.set_blocked("t", new)
        assert not dep.is_current("t", old) and dep.is_current("t", new)
        dep.set_blocked("t", old)
        assert dep.is_current("t", old) and not dep.is_current("t", new)

    def test_concurrent_updates_do_not_corrupt(self):
        dep = ResourceDependency()

        def hammer(tid: str):
            for i in range(200):
                dep.set_blocked(tid, waiting_on("p", i + 1, p=i + 1))
                dep.clear(tid)

        threads = [
            threading.Thread(target=hammer, args=(f"t{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert dep.blocked_count() == 0


class TestSnapshot:
    def test_waits_map_matches_definition(self):
        snap = example_41().snapshot()
        assert snap.waits["t1"] == frozenset({Event("pc", 1)})
        assert snap.waits["t4"] == frozenset({Event("pb", 1)})

    def test_awaited_events(self):
        snap = example_41().snapshot()
        assert snap.awaited_events == frozenset({Event("pc", 1), Event("pb", 1)})

    def test_impeders_match_example(self):
        snap = example_41().snapshot()
        assert snap.impeders_of(Event("pc", 1)) == frozenset({"t4"})
        assert snap.impeders_of(Event("pb", 1)) == frozenset({"t1", "t2", "t3"})

    def test_impeding_map_covers_all_awaited(self):
        snap = example_41().snapshot()
        imap = snap.impeding_map()
        assert set(imap) == snap.awaited_events

    def test_phaser_index(self):
        snap = example_41().snapshot()
        index = snap.phaser_index()
        assert sorted(index) == ["pb", "pc"]
        assert ("t4", 0) in index["pc"]
        assert ("t1", 1) in index["pc"]

    def test_len_iter_empty(self):
        snap = example_41().snapshot()
        assert len(snap) == 4
        assert set(snap) == {"t1", "t2", "t3", "t4"}
        assert not snap.is_empty()
        assert ResourceDependency().snapshot().is_empty()


class TestPhaseIndex:
    """The store-side index avoidance searches: ``phaser -> local phase
    -> {awaited event: count}``, lazy until the first ``vet_block``."""

    @staticmethod
    def asked(dep: ResourceDependency) -> ResourceDependency:
        """Ask ``dep`` one avoidance question, materialising its index."""
        dep.vet_block("probe", dep.set_blocked("probe", waiting_on("probe", 1)))
        dep.clear("probe")
        return dep

    def test_absent_until_first_asked(self):
        dep = example_41()
        dep.snapshot()
        dep.clear("t1")
        dep.set_blocked("t1", waiting_on("pc", 1, pc=1))
        assert dep.phase_index() is None
        self.asked(dep)
        assert dep.phase_index() is not None

    def test_materialised_from_the_statuses_already_there(self):
        assert self.asked(example_41()).phase_index() == {
            "pc": {1: {Event("pc", 1): 3}, 0: {Event("pb", 1): 1}},
            "pb": {0: {Event("pc", 1): 3}, 1: {Event("pb", 1): 1}},
        }

    def test_identical_statuses_share_one_refcounted_entry(self):
        dep = self.asked(ResourceDependency())
        for i in range(127):
            dep.set_blocked(f"w{i}", waiting_on("bar", 7, bar=7))
        assert dep.phase_index() == {"bar": {7: {Event("bar", 7): 127}}}
        dep.clear("w0")
        assert dep.phase_index() == {"bar": {7: {Event("bar", 7): 126}}}

    def test_set_clear_round_trip_prunes_empty_buckets(self):
        dep = self.asked(ResourceDependency())
        dep.set_blocked("a", waiting_on("p", 2, p=1, q=0))
        dep.set_blocked("b", waiting_on("q", 1, q=0))
        assert dep.phase_index() == {
            "p": {1: {Event("p", 2): 1}},
            "q": {0: {Event("p", 2): 1, Event("q", 1): 1}},
        }
        dep.clear("a")
        assert dep.phase_index() == {"q": {0: {Event("q", 1): 1}}}
        dep.clear("b")
        dep.clear("b")  # clearing an absent task touches nothing
        assert dep.phase_index() == {}

    def test_republication_replaces_the_old_entries(self):
        dep = self.asked(ResourceDependency())
        dep.set_blocked("a", waiting_on("p", 1, p=0))
        dep.set_blocked("a", waiting_on("q", 3, q=2))
        assert dep.phase_index() == {"q": {2: {Event("q", 3): 1}}}

    def test_republishing_an_earlier_object_replaces_and_reinstates(self):
        dep = self.asked(ResourceDependency())
        first = waiting_on("p", 1, p=0)
        dep.set_blocked("a", first)
        dep.set_blocked("a", waiting_on("q", 3, q=2))
        dep.set_blocked("a", first)  # over a published status
        assert dep.phase_index() == {"p": {0: {Event("p", 1): 1}}}
        dep.clear("a")
        dep.set_blocked("a", first)  # of an absent task
        assert dep.phase_index() == {"p": {0: {Event("p", 1): 1}}}

    def test_clear_all_empties_but_keeps_it_materialised(self):
        dep = self.asked(example_41())
        dep.clear_all()
        assert dep.phase_index() == {}
        dep.set_blocked("a", waiting_on("p", 1, p=0))
        assert dep.phase_index() == {"p": {0: {Event("p", 1): 1}}}

    def test_returned_index_is_a_copy(self):
        dep = self.asked(example_41())
        dep.phase_index()["pc"][1].clear()
        assert dep.phase_index()["pc"][1] == {Event("pc", 1): 3}


def vetted(dep: ResourceDependency, task, status):
    """Publish ``status`` for ``task`` and ask the store to vet it."""
    return dep.vet_block(task, dep.set_blocked(task, status))


class TestKnownAcyclic:
    """``vet_block`` decides only what the store can vouch for."""

    def test_empty_store_vouches_and_keeps_vouching(self):
        dep = ResourceDependency()
        for i in range(3):
            assert vetted(dep, f"t{i}", waiting_on("p", 1, p=1)) == 0

    def test_path_back_is_undecided(self):
        dep = ResourceDependency()
        assert vetted(dep, "a", waiting_on("p", 1, p=1, q=0)) == 0
        assert vetted(dep, "b", waiting_on("q", 1, p=0, q=1)) is None

    def test_unvetted_write_voids_until_confirmed(self):
        dep = ResourceDependency()
        dep.set_blocked("a", waiting_on("p", 1, p=1))
        assert vetted(dep, "b", waiting_on("p", 1, p=1)) is None
        dep.confirm_acyclic(dep.edge_writes())
        assert vetted(dep, "c", waiting_on("p", 1, p=1)) == 0

    def test_confirmation_of_a_stale_state_is_ignored(self):
        dep = ResourceDependency()
        dep.set_blocked("a", waiting_on("p", 1, p=1))
        as_of = dep.edge_writes()
        dep.set_blocked("b", waiting_on("p", 1, p=1))  # lands after as_of
        dep.confirm_acyclic(as_of)
        assert vetted(dep, "c", waiting_on("p", 1, p=1)) is None

    def test_clear_keeps_it_republication_voids_it(self):
        dep = ResourceDependency()
        first = waiting_on("p", 1, p=1)
        assert vetted(dep, "a", first) == 0
        dep.clear("a")
        assert vetted(dep, "b", waiting_on("p", 1, p=1)) == 0
        dep.set_blocked("a", first)  # an earlier object, unvetted
        assert vetted(dep, "c", waiting_on("p", 1, p=1)) is None

    def test_withdrawal_rearms_only_the_vouched_state(self):
        dep = ResourceDependency()
        assert vetted(dep, "a", waiting_on("p", 1, p=1, q=0)) == 0
        doomed = dep.set_blocked("b", waiting_on("q", 1, p=0, q=1))
        assert dep.vet_block("b", doomed) is None
        dep.clear("b")
        dep.confirm_withdrawn(doomed, restored=False)
        assert vetted(dep, "c", waiting_on("r", 1, r=1)) == 0
        # Not vouched before the withdrawn publication: nothing to re-arm.
        dep.set_blocked("d", waiting_on("r", 1, r=1))
        doomed = dep.set_blocked("e", waiting_on("r", 1, r=1))
        dep.clear("e")
        dep.confirm_withdrawn(doomed, restored=False)
        assert vetted(dep, "f", waiting_on("r", 1, r=1)) is None

    def test_withdrawal_by_republishing_the_prior_status_rearms(self):
        """The take-back publishes the prior object again — one more
        edge-adding write, which ``restored`` accounts for, and the
        prior object is current again."""
        dep = ResourceDependency()
        prior = waiting_on("p", 1, p=1, q=0)
        assert vetted(dep, "a", prior) == 0
        assert vetted(dep, "b", waiting_on("q", 1, q=1, r=0)) is not None
        doomed = dep.set_blocked("a", waiting_on("r", 1, p=1, q=0, r=1))
        assert dep.vet_block("a", doomed) is None
        dep.set_blocked("a", prior)
        dep.confirm_withdrawn(doomed, restored=True)
        assert dep.is_current("a", prior)
        assert vetted(dep, "c", waiting_on("x", 1, x=1)) == 0
        # A write landing between refusal and take-back voids it.
        doomed = dep.set_blocked("a", waiting_on("r", 1, p=1, q=0, r=1))
        dep.set_blocked("d", waiting_on("s", 1, s=1))
        dep.set_blocked("a", prior)
        dep.confirm_withdrawn(doomed, restored=True)
        assert vetted(dep, "e", waiting_on("x", 1, x=1)) is None

    def test_clear_all_vouches_again(self):
        dep = ResourceDependency()
        dep.set_blocked("a", waiting_on("p", 1, p=1))
        dep.clear_all()
        assert vetted(dep, "b", waiting_on("p", 1, p=1)) == 0

    def test_publication_landing_before_the_question_is_undecided(self):
        dep = ResourceDependency()
        mine = dep.set_blocked("a", waiting_on("p", 1, p=1))
        dep.set_blocked("b", waiting_on("q", 1, q=1))  # unvetted, after mine
        assert dep.vet_block("a", mine) is None

    def test_a_shared_object_is_vetted_by_write_not_by_identity(self):
        """Equal statuses read from one trace section are one object;
        the ordinal, not the object, names the write being vetted."""
        dep = ResourceDependency()
        shared = waiting_on("p", 1, p=1)
        first = dep.set_blocked("a", shared)
        assert dep.vet_block("a", first) == 0
        second = dep.set_blocked("b", shared)
        assert dep.vet_block("a", first) is None  # not the latest write
        assert dep.vet_block("b", second) == 0


class TestSearchAcrossPhasesOfOnePhaser:
    """The search reads each bucket of a phaser once; reaching the same
    phaser again at another phase must read exactly the buckets the
    first visit left out.

    ``a@1 -> {p@1, c@1}``, ``c@1 -> p@3``, ``p@1 -> b@1``, ``p@3 ->
    {b@1, z@1}``: the hop to ``z@1`` leaves from the bucket of ``p`` at
    phase 1, which only ``p@3`` may read.  Successors are expanded last
    in, first out, and buckets keep insertion order, so publishing the
    two tasks held at ``a`` in either order fixes which of ``p@1`` and
    ``p@3`` the search reaches first.
    """

    @staticmethod
    def store(order_at_a: str) -> ResourceDependency:
        dep = ResourceDependency()
        for name in order_at_a:
            held_at_a = waiting_on(name, 1, a=0)
            assert vetted(dep, f"a-{name}", held_at_a) == 0
        for task, status in (
            ("u2", waiting_on("b", 1, p=0)),
            ("u3", waiting_on("p", 3, c=0)),
            ("u4", waiting_on("z", 1, p=1)),
        ):
            assert vetted(dep, task, status) is not None
        return dep

    @pytest.mark.parametrize("order_at_a", ["pc", "cp"])
    def test_cycle_through_the_bucket_between_is_found(self, order_at_a):
        dep = self.store(order_at_a)
        assert vetted(dep, "t", waiting_on("a", 1, z=0)) is None

    @pytest.mark.parametrize("order_at_a", ["pc", "cp"])
    def test_every_bucket_is_read_once(self, order_at_a):
        dep = self.store(order_at_a)
        # a[0] holds two events; p[0], c[0] and p[1] one each.
        assert vetted(dep, "t", waiting_on("a", 1, y=0)) == 5
