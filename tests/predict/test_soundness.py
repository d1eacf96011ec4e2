"""The soundness differential layer (the PR's acceptance pins).

Three legs:

* **Corpus differential** — for every checked-in corpus member, every
  prediction's witness replays to a confirmed deadlock in *both*
  engines (classic and incremental) with identical reports naming the
  candidate's task set; ok-traces without a near-miss (every existing
  family plus the ``ctl`` pins) yield zero predictions; each ``hit``
  pin yields at least one confirmed prediction; dl-traces short-circuit
  to ``manifest``.
* **Property tests** — randomised race-free SPMD barrier schedules
  (seeded, so failures replay) never produce a prediction: prediction
  is sound against schedule noise, not just against the pinned corpus.
* **Determinism** — predicting twice over the same bytes produces
  equal observable results.
"""

from __future__ import annotations

import pathlib
import random

import pytest

import repro.trace.events as ev
from repro.core.events import BlockedStatus, Event
from repro.core.selection import GraphModel
from repro.predict.engine import CLEAN, MANIFEST, PREDICTED, predict_trace
from repro.trace.events import Trace, TraceHeader
from repro.trace.parallel import discover_traces
from repro.trace.replay import DETECTION, replay

CORPUS = pathlib.Path(__file__).parent.parent / "trace" / "corpus"


def corpus_files():
    return discover_traces(CORPUS)


def corpus_ids(path):
    return path.name


class TestCorpusDifferential:
    @pytest.mark.parametrize("path", corpus_files(), ids=corpus_ids)
    def test_every_prediction_is_engine_confirmed(self, path):
        """The headline soundness pin: a predicted report IS an engine
        report of a concrete replayable witness."""
        result = predict_trace(str(path))
        for prediction in result.confirmed:
            classic = replay(prediction.witness, mode=DETECTION,
                             model=GraphModel.AUTO, check_every=1)
            incremental = replay(prediction.witness, mode=DETECTION,
                                 model=GraphModel.AUTO, check_every=1,
                                 incremental=True)
            assert classic.deadlocked, path.name
            assert incremental.deadlocked, path.name
            assert classic.reports == incremental.reports, path.name
            tasks = frozenset(prediction.candidate.tasks)
            assert any(
                frozenset(str(t) for t in r.tasks) == tasks
                for r in classic.reports
            ), path.name

    @pytest.mark.parametrize("path", corpus_files(), ids=corpus_ids)
    def test_outcome_matches_corpus_ground_truth(self, path):
        """dl-traces are manifest; ok-traces predict iff their metadata
        says a realisable near-miss was planted (``expect_prediction``
        — the existing families carry none, so they must stay clean)."""
        from repro.trace.codec import load_trace

        trace = load_trace(path)
        result = predict_trace(trace)
        if replay(trace).deadlocked:
            assert result.outcome == MANIFEST, path.name
            assert not result.confirmed
            return
        expected = bool(trace.header.meta.get("expect_prediction"))
        if expected:
            assert result.outcome == PREDICTED, path.name
            assert len(result.confirmed) >= 1, path.name
        else:
            assert result.outcome == CLEAN, path.name
            assert not result.confirmed, path.name

    def test_corpus_carries_both_polarity_pins(self):
        """Guard the ground truth itself: at least one hit and one ctl
        pin must exist, or the two tests above pass vacuously."""
        names = {p.name for p in corpus_files()}
        assert any("-hit-ok" in n for n in names)
        assert any("-ctl-ok" in n for n in names)

    def test_prediction_provenance_points_at_original_records(self):
        """Re-homed provenance: edge origins are ordinals of the mined
        trace, and the report carries no detection coordinates — a
        prediction has no closing record in the recorded run."""
        hits = [p for p in corpus_files() if "-hit-ok" in p.name]
        for path in hits:
            result = predict_trace(str(path))
            for prediction in result.confirmed:
                report = prediction.report
                assert report.detection_lag is None
                assert report.detected_at is None
                opened = {iv.open_seq
                          for iv in prediction.candidate.intervals}
                assert report.provenance, path.name
                for edge in report.provenance:
                    assert edge.source_origin.ordinal in opened
                    assert edge.target_origin.ordinal in opened


def racefree_barrier_trace(seed: int) -> Trace:
    """A randomised race-free SPMD schedule: ``n`` tasks run ``rounds``
    barrier rounds; per round every task advances (arrives) *before*
    blocking, so its registered phase equals the awaited phase and no
    status impedes another — no reordering can deadlock.  Arrival
    order, block order and release interleaving are all drawn from the
    seed."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    rounds = rng.randint(1, 4)
    tasks = [f"t{i}" for i in range(n)]
    records = []
    seq = 0

    def emit(rec):
        nonlocal seq
        records.append(rec)
        seq += 1

    for task in tasks:
        emit(ev.register(seq, task, "bar", 0))
    for r in range(1, rounds + 1):
        arrivals = tasks[:]
        rng.shuffle(arrivals)
        blocked = []
        for task in arrivals:
            emit(ev.advance(seq, task, "bar", r))
            # Some tasks block for the stragglers, some skip straight
            # through (they observed everyone already arrived).
            if rng.random() < 0.8:
                emit(ev.block(seq, task, BlockedStatus(
                    waits=frozenset({Event("bar", r)}),
                    registered={"bar": r},
                )))
                blocked.append(task)
        rng.shuffle(blocked)
        for task in blocked:
            emit(ev.unblock(seq, task))
    return Trace(
        header=TraceHeader(meta={
            "generator": "tests.predict", "scenario": f"racefree-{seed}",
            "expect_deadlock": False,
        }),
        records=records,
    )


class TestRaceFreeProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_racefree_schedules_yield_zero_predictions(self, seed):
        trace = racefree_barrier_trace(seed)
        assert not replay(trace).deadlocked  # the schedule is sound
        result = predict_trace(trace)
        assert result.outcome == CLEAN, f"seed={seed}"
        assert not result.confirmed
        assert not result.truncated

    @pytest.mark.parametrize("seed", [3, 11])
    def test_racefree_schedules_scan_no_candidates(self, seed):
        # Stronger than zero predictions: with registered == awaited
        # phase nothing impedes, so the enumerator finds no cycle to
        # even try.
        result = predict_trace(racefree_barrier_trace(seed))
        assert result.candidates_scanned == 0


class TestDeterminism:
    def test_predicting_twice_is_observably_identical(self):
        from repro.trace.codec import dumps

        hit = next(p for p in corpus_files() if "-hit-ok" in p.name)
        first = predict_trace(str(hit))
        second = predict_trace(str(hit))
        assert first.outcome == second.outcome == PREDICTED
        assert first.candidates_scanned == second.candidates_scanned
        assert [p.report for p in first.confirmed] == [
            p.report for p in second.confirmed
        ]
        assert [dumps(p.witness, "jsonl") for p in first.confirmed] == [
            dumps(p.witness, "jsonl") for p in second.confirmed
        ]
