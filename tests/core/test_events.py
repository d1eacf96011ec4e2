"""Unit tests for synchronisation events and blocked statuses."""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
from dataclasses import dataclass

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.dependency import DependencySnapshot
from repro.core.events import BlockedStatus, Event, waiting_on
from repro.core.graphs import build_grg
from repro.core.report import RecordOrigin
from repro.core.selection import GraphModel
from repro.obs.tracing import OriginTracker, attach_provenance
from repro.trace.parallel import fan_out


class TestEvent:
    def test_ordering_is_per_phaser_then_phase(self):
        assert Event("p", 1) < Event("p", 2)
        assert sorted([Event("p", 3), Event("p", 1)]) == [
            Event("p", 1),
            Event("p", 3),
        ]

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            Event("p", -1)

    def test_equality_and_hash(self):
        assert Event("p", 1) == Event("p", 1)
        assert hash(Event("p", 1)) == hash(Event("p", 1))
        assert Event("p", 1) != Event("q", 1)

    def test_repr_is_compact(self):
        assert repr(Event("pc", 3)) == "pc@3"


@dataclass(frozen=True, order=True)
class DataclassEvent:
    """What ``Event`` was before it became a tuple: the reference its
    equality, hashing and order are held to."""

    phaser: str
    phase: int


def _type_and_value(event):
    return type(event), event, os.getpid()


class TestEventIsAValue:
    def test_eq_hash_and_order_agree_with_the_dataclass(self):
        rng = random.Random(23)
        pairs = [(rng.choice("pqrs") * rng.randint(1, 2), rng.randint(0, 4))
                 for _ in range(120)]
        events = [Event(*pair) for pair in pairs]
        reference = [DataclassEvent(*pair) for pair in pairs]
        for (a, ra), (b, rb) in itertools.combinations(
            zip(events, reference), 2
        ):
            assert (a == b) == (ra == rb)
            assert (a < b) == (ra < rb)
            assert (a <= b) == (ra <= rb)
            if ra == rb:
                assert hash(a) == hash(b)
        assert len(set(events)) == len(set(reference))
        assert [(e.phaser, e.phase) for e in sorted(frozenset(events))] == [
            (r.phaser, r.phase) for r in sorted(frozenset(reference))
        ]

    def test_fields_are_read_only(self):
        event = Event("p", 1)
        with pytest.raises(AttributeError):
            event.phase = 2
        with pytest.raises(AttributeError):
            event.phaser = "q"
        with pytest.raises(AttributeError):
            event.label = 0  # no instance dict either

    def test_fields_go_by_keyword_too(self):
        assert Event(phaser="p", phase=1) == Event("p", 1)

    def test_copies_and_pickles_keep_the_type(self):
        event = Event("p", 1)
        for clone in (
            pickle.loads(pickle.dumps(event)),
            copy.copy(event),
            copy.deepcopy(event),
        ):
            assert type(clone) is Event and clone == event
            assert str(clone) == "p@1"
        status = waiting_on("p", 1, p=1)
        assert pickle.loads(pickle.dumps(status)) == status

    def test_crosses_a_process_pool_as_an_event(self):
        events = [Event("p", n) for n in range(4)]
        results = fan_out(_type_and_value, events, processes=2)
        assert [(kind, value) for kind, value, _ in results] == [
            (Event, event) for event in events
        ]
        assert {pid for _, _, pid in results} != {os.getpid()}


class TestEventIsNeverATask:
    """Tasks and events share one dict in the GRG and in attribution; a
    task id may be any hashable, the pair ``(phaser, phase)`` included."""

    NAMED_LIKE_AN_EVENT = ("p", 1)

    def crossed(self):
        return {
            self.NAMED_LIKE_AN_EVENT: waiting_on("q", 1, q=1, p=0),
            "w": waiting_on("p", 1, p=1, q=0),
        }

    def test_unequal_to_the_tuple_of_its_fields(self):
        event = Event("p", 1)
        assert event != self.NAMED_LIKE_AN_EVENT
        assert len({event, self.NAMED_LIKE_AN_EVENT}) == 2

    def test_the_grg_keeps_the_task_and_the_event(self):
        grg = build_grg(DependencySnapshot(statuses=self.crossed()))
        assert set(grg.vertices) == {
            self.NAMED_LIKE_AN_EVENT, "w", Event("p", 1), Event("q", 1),
        }
        assert grg.has_edge("w", Event("p", 1))
        assert grg.has_edge(Event("p", 1), self.NAMED_LIKE_AN_EVENT)
        assert not grg.has_edge(self.NAMED_LIKE_AN_EVENT, Event("p", 1))

    def test_an_sg_vertex_is_attributed_to_its_waiter(self):
        statuses = self.crossed()
        report = DeadlockChecker(model=GraphModel.SG).check(
            DependencySnapshot(statuses=statuses)
        )
        assert report.cycle == (Event("p", 1), Event("q", 1), Event("p", 1))
        tracker = OriginTracker()
        tracker.origins[self.NAMED_LIKE_AN_EVENT] = RecordOrigin(0)
        tracker.origins["w"] = RecordOrigin(1)
        tracker.last_ordinal = 1
        enriched, _ = attach_provenance(report, tracker, statuses)
        first = enriched.provenance[0]
        assert (first.source, first.source_task, first.source_origin) == (
            "p@1", "w", RecordOrigin(1),
        )
        assert (first.target, first.target_task, first.target_origin) == (
            "q@1", str(self.NAMED_LIKE_AN_EVENT), RecordOrigin(0),
        )


class TestBlockedStatus:
    def test_requires_at_least_one_wait(self):
        with pytest.raises(ValueError):
            BlockedStatus(waits=frozenset())

    def test_waits_coerced_to_frozenset(self):
        s = BlockedStatus(waits={Event("p", 1)})
        assert isinstance(s.waits, frozenset)

    def test_registered_is_immutable(self):
        s = waiting_on("p", 1, p=1, q=0)
        with pytest.raises(TypeError):
            s.registered["q"] = 5  # type: ignore[index]
        with pytest.raises(TypeError):
            s.registered.clear()  # type: ignore[attr-defined]

    def test_impedes_strictly_below_phase(self):
        s = waiting_on("p", 1, p=1, q=0)
        assert s.impedes(Event("q", 1))
        assert s.impedes(Event("q", 5))
        assert not s.impedes(Event("q", 0))
        assert not s.impedes(Event("p", 1))  # own phase reached
        assert s.impedes(Event("p", 2))  # but not future phases

    def test_impedes_only_registered_phasers(self):
        s = waiting_on("p", 1, p=1)
        assert not s.impedes(Event("other", 99))

    def test_impeded_events_filters(self):
        s = waiting_on("p", 2, p=2, q=0)
        awaited = [Event("q", 1), Event("p", 1), Event("p", 3), Event("x", 1)]
        assert s.impeded_events(awaited) == frozenset(
            {Event("q", 1), Event("p", 3)}
        )

    def test_status_is_hashable(self):
        s1 = waiting_on("p", 1, p=1)
        s2 = waiting_on("p", 1, p=1)
        assert len({s1, s2}) == 1
