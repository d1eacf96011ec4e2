"""Canonical identifier renaming (`repro.trace.normalize`)."""

from __future__ import annotations

import pytest

from repro.core.events import BlockedStatus, Event
from repro.distributed.delta import make_snapshot
from repro.trace import events as ev
from repro.trace.codec import dumps
from repro.trace.corpus import ChurnSpec, ScenarioSpec, build_trace
from repro.trace.events import Trace, TraceHeader
from repro.trace.normalize import canonical_trace
from repro.trace.replay import replay


def make_trace(task_a, task_b, res_p, res_q, site="siteX"):
    """The same little scenario under arbitrary identifier spellings."""
    status_a = BlockedStatus(
        waits=frozenset({Event(res_p, 1)}), registered={res_p: 1, res_q: 0}
    )
    records = (
        ev.register(0, task_a, res_p, 0),
        ev.register(1, task_a, res_q, 0),
        ev.register(2, task_b, res_p, 0),
        ev.advance(3, task_a, res_p, 1),
        ev.block(4, task_a, status_a),
        ev.publish_delta(
            5,
            site,
            make_snapshot(
                1,
                {task_b: {"waits": [[res_q, 1]], "registered": {res_q: 0}}},
                f"{site}-stream",
            ),
        ),
        ev.unblock(6, task_a),
    )
    return Trace(header=TraceHeader(meta={"scenario": "norm"}), records=records)


class TestCanonicalTrace:
    def test_renames_by_first_appearance(self):
        out = canonical_trace(make_trace("T17", "T4", "phaser#9", "lock#2"))
        assert [r.task for r in out.records[:3]] == ["t0", "t0", "t1"]
        assert out.records[0].phaser == "r0"
        assert out.records[1].phaser == "r1"
        assert out.records[5].site == "s0"
        assert set(out.records[5].payload["set"]) == {"t1"}
        assert out.records[5].payload["stream"] == "c0"

    def test_status_contents_renamed(self):
        out = canonical_trace(make_trace("T17", "T4", "phaser#9", "lock#2"))
        status = out.records[4].status
        assert status.waits == frozenset({Event("r0", 1)})
        assert dict(status.registered) == {"r0": 1, "r1": 0}

    def test_identifier_spelling_is_erased(self):
        """Two spellings of one scenario normalise to identical bytes."""
        first = make_trace("T1", "T2", "phaser#1", "phaser#2", site="place0")
        second = make_trace("T90", "T3", "clock#77", "phaser#5", site="place9")
        for codec in ("jsonl", "binary"):
            assert dumps(canonical_trace(first), codec) == dumps(
                canonical_trace(second), codec
            )

    def test_counter_offsets_are_erased(self):
        """A record introducing several unseen ids at once must rename
        them by *mint order*, not string order: phaser#9/phaser#10 in
        one process and phaser#2/phaser#3 in another (same behaviour,
        offset counters) must normalise identically — string sorting
        would swap the first pair ('phaser#10' < 'phaser#9')."""

        def lone_block(res_a, res_b):
            status = BlockedStatus(
                waits=frozenset({Event(res_a, 1)}),
                registered={res_a: 1, res_b: 0},
            )
            return Trace(
                header=TraceHeader(meta={}),
                records=(ev.block(0, "T1", status),),
            )

        low = canonical_trace(lone_block("phaser#2", "phaser#3"))
        high = canonical_trace(lone_block("phaser#9", "phaser#10"))
        assert low == high
        assert low.records[0].status.waits == frozenset({Event("r0", 1)})

    def test_idempotent(self):
        trace = make_trace("T17", "T4", "phaser#9", "lock#2")
        once = canonical_trace(trace)
        assert canonical_trace(once) == once

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(cycle_len=3, fan_out=2, sites=1, rounds=1),
            ScenarioSpec(cycle_len=2, fan_out=1, sites=2, rounds=1),
            ChurnSpec(pool=5, window=3, rounds=3),
        ],
        ids=lambda s: s.name,
    )
    def test_replay_verdict_invariant(self, spec):
        """Renaming must not change what the checker concludes."""
        trace = build_trace(spec)
        assert (
            replay(canonical_trace(trace)).deadlocked
            == replay(trace).deadlocked
            == spec.deadlock
        )

    def test_preserves_structure(self):
        trace = build_trace(ScenarioSpec(cycle_len=2, fan_out=1, rounds=1))
        out = canonical_trace(trace)
        assert len(out) == len(trace)
        assert [r.kind for r in out.records] == [r.kind for r in trace.records]
        assert [r.seq for r in out.records] == [r.seq for r in trace.records]
        assert dict(out.header.meta) == dict(trace.header.meta)

    def test_publish_delta_payloads_renamed(self):
        """Delta payloads: tasks/resources inside set/clear are
        renamed; seq, kind and protocol version pass through."""
        from repro.trace.events import RecordKind

        trace = build_trace(
            ScenarioSpec(cycle_len=2, fan_out=1, sites=2, rounds=1)
        )
        out = canonical_trace(trace)
        deltas = [r for r in out.records if r.kind is RecordKind.PUBLISH_DELTA]
        assert deltas, "multi-site trace must carry deltas"
        originals = [
            r for r in trace.records if r.kind is RecordKind.PUBLISH_DELTA
        ]
        for rec, orig in zip(deltas, originals):
            assert rec.site.startswith("s")
            assert rec.payload["seq"] == orig.payload["seq"]
            assert rec.payload["kind"] == orig.payload["kind"]
            for task, blob in rec.payload["set"].items():
                assert task.startswith("t")
                assert all(p.startswith("r") for p, _ in blob["waits"])
            assert all(t.startswith("t") for t in rec.payload["clear"])
