"""Unit tests for the happens-before model (repro.predict.hb).

The model's soundness contract: program order per task, release order
from advances into the unblocks they enable, publish→sync attribution
of published status ops to their tasks — and deliberately *no* ordering
between distinct tasks that merely share a publish stream.
"""

from __future__ import annotations

import repro.trace.events as ev
from repro.core.events import BlockedStatus, Event, waiting_on
from repro.distributed.delta import make_snapshot
from repro.predict.candidates import extract_intervals
from repro.predict.hb import build_hb_model
from repro.trace.events import status_to_obj


def w(phaser: str, phase: int, **registered: int) -> BlockedStatus:
    return waiting_on(phaser, phase, **registered)


def snapshot(seq: int, site: str, bucket: dict, stream_seq: int = 1):
    """A ``publish_delta`` record: ``site`` checkpoints ``bucket`` whole."""
    return ev.publish_delta(seq, site, make_snapshot(stream_seq, bucket, site))


class TestProgramOrder:
    def test_events_per_task_in_order_with_increasing_ticks(self):
        records = [
            ev.register(0, "t", "p", 0),
            ev.block(1, "t", w("p", 1, p=0)),
            ev.unblock(2, "t"),
        ]
        model = build_hb_model(records)
        events = model.events["t"]
        assert [e.kind for e in events] == ["register", "block", "unblock"]
        assert [e.tick for e in events] == [1, 2, 3]
        assert [e.seq for e in events] == [0, 1, 2]
        assert model.records_seen == 3

    def test_tasks_listed_in_canonical_order(self):
        records = [
            ev.advance(0, "zz", "p", 1),
            ev.advance(1, "aa", "q", 1),
        ]
        assert build_hb_model(records).tasks() == ["aa", "zz"]


class TestReleaseOrder:
    def test_unblock_joins_advancing_tasks_clock(self):
        # h releases t's wait on p; t's *next* block must be causally
        # after h's advance (the release edge), so its clock sees h.
        records = [
            ev.advance(0, "h", "p", 1),
            ev.block(1, "t", w("p", 1, p=0)),
            ev.unblock(2, "t"),
            ev.block(3, "t", w("q", 1, q=0)),
        ]
        _, intervals = extract_intervals(records)
        first, second = intervals
        assert first.task == "t" and "h" not in first.block_clock
        assert second.block_clock.get("h", 0) >= 1

    def test_advance_after_block_does_not_backdate(self):
        # The advance lands after the block opened: the block's clock
        # must not see the releaser (the wait and the advance are
        # concurrent until the unblock).
        records = [
            ev.block(0, "t", w("p", 1, p=0)),
            ev.advance(1, "h", "p", 1),
            ev.unblock(2, "t"),
        ]
        _, intervals = extract_intervals(records)
        assert "h" not in intervals[0].block_clock
        assert intervals[0].close_tick is not None


class TestPublishAttribution:
    def test_published_statuses_attributed_to_their_tasks(self):
        payload = {
            "a": status_to_obj(w("p", 1, p=0)),
            "b": status_to_obj(w("q", 1, q=0)),
        }
        model = build_hb_model([snapshot(0, "site0", payload)])
        assert set(model.events) == {"a", "b"}
        for task in ("a", "b"):
            (event,) = model.events[task]
            assert event.kind == "block"
            assert event.site == "site0"

    def test_bucket_diff_emits_unblocks_for_vanished_tasks(self):
        full = {"a": status_to_obj(w("p", 1, p=0))}
        model = build_hb_model([
            snapshot(0, "site0", full),
            snapshot(1, "site0", {}, 2),
        ])
        assert [e.kind for e in model.events["a"]] == ["block", "unblock"]

    def test_republication_of_unchanged_status_is_not_a_new_block(self):
        full = {"a": status_to_obj(w("p", 1, p=0))}
        model = build_hb_model([
            snapshot(0, "site0", full),
            snapshot(1, "site0", full, 2),
        ])
        assert [e.kind for e in model.events["a"]] == ["block"]

    def test_stream_order_does_not_order_distinct_tasks(self):
        # Two tasks' statuses arrive through one site's stream; the
        # model must keep them concurrent (sparse-HB contract) — the
        # later block's clock must not see the earlier task.
        payload_a = {"a": status_to_obj(w("p", 1, p=0, q=0))}
        payload_ab = {
            "a": status_to_obj(w("p", 1, p=0, q=0)),
            "b": status_to_obj(w("q", 1, q=0, p=0)),
        }
        _, intervals = extract_intervals([
            snapshot(0, "site0", payload_a),
            snapshot(1, "site0", payload_ab, 2),
        ])
        by_task = {iv.task: iv for iv in intervals}
        assert "a" not in by_task["b"].block_clock


class TestStatusChurn:
    def test_superseding_status_closes_the_previous_interval(self):
        records = [
            ev.block(0, "t", w("p", 1, p=0)),
            ev.block(1, "t", w("p", 2, p=1)),
        ]
        _, intervals = extract_intervals(records)
        assert len(intervals) == 2
        assert intervals[0].close_seq == 1
        assert intervals[1].close_seq is None

    def test_unblock_without_open_block_is_ignored(self):
        model = build_hb_model([ev.unblock(0, "t")])
        assert model.events == {}
        assert model.records_seen == 1

    def test_waits_key_events_survive_as_event_objects(self):
        records = [ev.block(0, "t", w("p", 3, p=1))]
        _, intervals = extract_intervals(records)
        (interval,) = intervals
        assert interval.status.waits == frozenset({Event("p", 3)})
        assert interval.status.registered == {"p": 1}
