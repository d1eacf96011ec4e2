"""Unit tests for witness construction (repro.predict.witness).

A witness must be (a) a legal trace — contiguous sequencing, decodable
records; (b) an HB-consistent reordering — it replays without error and
ends with every candidate task blocked; (c) deterministic — identical
bytes across repeated constructions.
"""

from __future__ import annotations

import pytest

from repro.core.selection import GraphModel
from repro.predict.candidates import (
    BlockInterval,
    Candidate,
    enumerate_candidates,
    extract_intervals,
)
from repro.predict.witness import build_witness
from repro.trace.codec import dumps
from repro.trace.corpus import NearMissSpec, build_trace
from repro.trace.events import RecordKind
from repro.trace.replay import DETECTION, replay


def witness_for(spec: NearMissSpec, index: int = 0):
    trace = build_trace(spec)
    model, intervals = extract_intervals(trace)
    candidates, _ = enumerate_candidates(intervals)
    assert candidates, "expected a candidate on a hit spec"
    return trace, candidates[0], build_witness(
        trace, model, candidates[0], index=index
    )


class TestWitnessShape:
    def test_records_are_contiguously_resequenced(self):
        _, _, witness = witness_for(NearMissSpec(chain_len=2))
        assert [r.seq for r in witness.records] == list(
            range(len(witness.records))
        )

    def test_ends_with_every_candidate_task_blocked(self):
        _, candidate, witness = witness_for(NearMissSpec(chain_len=3))
        blocked = set()
        for rec in witness.records:
            if rec.kind is RecordKind.BLOCK:
                blocked.add(str(rec.task))
            elif rec.kind is RecordKind.UNBLOCK:
                blocked.discard(str(rec.task))
        assert blocked == set(candidate.tasks)

    def test_published_ops_are_reemitted_as_local_records(self):
        # sites=2 routes statuses through the delta wire; the witness
        # must stand alone, so no publish records may survive.
        _, _, witness = witness_for(NearMissSpec(chain_len=2, sites=2))
        kinds = {rec.kind for rec in witness.records}
        assert RecordKind.PUBLISH_DELTA not in kinds

    def test_header_meta_names_the_candidate(self):
        _, candidate, witness = witness_for(
            NearMissSpec(chain_len=2), index=7
        )
        meta = witness.header.meta
        assert meta["generator"] == "repro.predict"
        assert meta["kind"] == "witness"
        assert meta["candidate"] == 7
        assert meta["tasks"] == sorted(candidate.tasks)
        assert meta["expect_deadlock"] is True
        assert meta["source_family"] == "nearmiss"


class TestWitnessRealisability:
    @pytest.mark.parametrize("sites", [1, 2])
    def test_witness_replays_to_deadlock_in_both_engines(self, sites):
        _, candidate, witness = witness_for(
            NearMissSpec(chain_len=2, sites=sites)
        )
        classic = replay(witness, mode=DETECTION, model=GraphModel.AUTO,
                         check_every=1)
        incremental = replay(witness, mode=DETECTION,
                             model=GraphModel.AUTO, check_every=1,
                             incremental=True)
        assert classic.deadlocked and incremental.deadlocked
        assert classic.reports == incremental.reports
        tasks = frozenset(candidate.tasks)
        assert any(
            frozenset(str(t) for t in report.tasks) == tasks
            for report in classic.reports
        )

    def test_witness_bytes_are_stable(self):
        first = dumps(witness_for(NearMissSpec(chain_len=3, sites=2))[2],
                      "jsonl")
        second = dumps(witness_for(NearMissSpec(chain_len=3, sites=2))[2],
                       "jsonl")
        assert first == second


class TestWitnessErrors:
    def test_missing_block_event_raises(self):
        trace = build_trace(NearMissSpec(chain_len=2))
        model, intervals = extract_intervals(trace)
        bogus = Candidate(intervals=(
            BlockInterval(
                task=intervals[0].task,
                status=intervals[0].status,
                open_seq=10_000,  # no such record
            ),
        ))
        with pytest.raises(ValueError, match="no block event"):
            build_witness(trace, model, bogus)
