"""Replay tests: determinism against live runs, modes, models, cadence."""

from __future__ import annotations

import fnmatch
import pathlib

import pytest

from repro.core.events import waiting_on
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaSequenceError, make_snapshot
from repro.trace import events as ev
from repro.trace.corpus import ScenarioSpec, scenario_trace
from repro.trace.events import status_to_obj
from repro.trace.recorder import TraceRecorder
from repro.trace.parallel import replay_corpus
from repro.trace.replay import AVOIDANCE, DETECTION, replay

from test_recorder import join_quietly, run_crossed_deadlock

CORPUS = pathlib.Path(__file__).parent / "corpus"
#: Every corpus member one site publishes nothing for: avoidance
#: replays vet its block records.
SINGLE_SITE = sorted(
    path for path in CORPUS.iterdir()
    if not any(fnmatch.fnmatch(path.name, pattern)
               for pattern in ("*-S2-*", "recorded-cluster-*", "expected_*"))
)


class TestDeterminism:
    def test_replay_equals_live_detection_report(self, runtime_factory):
        """The satellite requirement: replaying a recorded deadlocking
        run reproduces the live DeadlockReport bit-for-bit (replay
        additionally attaches record provenance; the analysis content
        must match the live report exactly)."""
        recorder = TraceRecorder()
        rt = runtime_factory("detection", recorder=recorder)
        rt.monitor.stop()  # manual poll: the live check point is exact
        t1, t2 = run_crossed_deadlock(rt)
        join_quietly(t1, t2)
        assert len(rt.reports) == 1
        outcome = replay(recorder.trace(), mode=DETECTION)
        assert [r.without_provenance() for r in outcome.reports] == rt.reports
        assert all(r.provenance for r in outcome.reports)

    def test_replay_equals_live_avoidance_report(self, runtime_factory):
        recorder = TraceRecorder()
        rt = runtime_factory("avoidance", recorder=recorder)
        t1, t2 = run_crossed_deadlock(rt, poll=False)
        join_quietly(t1, t2)
        assert len(rt.reports) == 1 and rt.reports[0].avoided
        outcome = replay(recorder.trace(), mode=AVOIDANCE)
        assert [r.without_provenance() for r in outcome.reports] == rt.reports
        assert all(r.provenance for r in outcome.reports)

    def test_replay_is_self_deterministic(self):
        trace = scenario_trace(
            ScenarioSpec(cycle_len=4, fan_out=2, sites=1, rounds=3)
        )
        first = replay(trace, mode=DETECTION)
        second = replay(trace, mode=DETECTION)
        assert first.reports == second.reports
        assert first.checks_run == second.checks_run


class TestModes:
    def test_avoidance_refuses_the_closing_block(self):
        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=1))
        outcome = replay(trace, mode=AVOIDANCE)
        assert len(outcome.reports) == 1
        assert outcome.reports[0].avoided

    def test_detection_reports_once_for_persisting_cycle(self):
        trace = scenario_trace(ScenarioSpec(cycle_len=3, fan_out=2, sites=1))
        outcome = replay(trace, mode=DETECTION)
        assert len(outcome.reports) == 1
        assert not outcome.reports[0].avoided

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown replay mode"):
            replay([], mode="wrong")

    @pytest.mark.parametrize("check_every", [0, -5, 2.5, True],
                             ids=["zero", "negative", "float", "bool"])
    def test_a_cadence_that_is_not_a_positive_int_is_refused(
        self, check_every
    ):
        """Refused, not coerced: ``0`` and ``-5`` once ran as 1 and
        ``2.5`` as every third record.  The CLI refuses the same
        values through argparse."""
        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=1))
        with pytest.raises(ValueError, match="check_every"):
            replay(trace, check_every=check_every)
        with pytest.raises(ValueError, match="check_every"):
            replay_corpus(CORPUS, check_every=check_every)


class TestDistributedReplay:
    def test_publish_delta_records_drive_global_view(self):
        """sites>1 corpora carry only publish_delta records; the replay
        materialises per-site views from the deltas exactly like the
        live one-phase distributed checker."""
        trace = scenario_trace(ScenarioSpec(cycle_len=3, fan_out=1, sites=3))
        from repro.trace.events import RecordKind

        kinds = {r.kind for r in trace}
        assert RecordKind.PUBLISH_DELTA in kinds and RecordKind.BLOCK not in kinds
        outcome = replay(trace, mode=DETECTION)
        assert outcome.deadlocked
        # The cycle spans statuses from every site's bucket.
        assert len(outcome.reports[0].tasks) == 3

    def test_deadlock_free_distributed_trace(self):
        trace = scenario_trace(
            ScenarioSpec(cycle_len=3, fan_out=1, sites=2, deadlock=False)
        )
        assert not replay(trace, mode=DETECTION).deadlocked


class TestModelsAndCadence:
    @pytest.mark.parametrize("model", [GraphModel.WFG, GraphModel.SG, GraphModel.AUTO])
    def test_any_graph_model_finds_the_cycle(self, model):
        trace = scenario_trace(ScenarioSpec(cycle_len=3, fan_out=2, sites=1))
        outcome = replay(trace, model=model, mode=DETECTION)
        assert outcome.deadlocked
        if model is not GraphModel.AUTO:
            assert outcome.reports[0].model_used is model

    def test_per_model_check_accounting_needs_the_from_scratch_engine(self):
        """Reports follow ``model`` on both engines, the check counters
        only from scratch: the maintained engine records every acyclic
        check as a ``wfg`` check of its Wait-For Graph."""
        path = str(CORPUS / "cycle-L3-F2-S1-R2-ok.trace")

        def reading(incremental):
            metrics = replay(path, model=GraphModel.SG,
                             incremental=incremental).metrics
            edges = metrics.get("repro_check_edges")
            return (metrics.get("repro_checks_total").per_label(),
                    edges.count_of(), edges.sum_of())

        assert reading(False) == ({("sg",): 36}, 36, 10)
        assert reading(True) == ({("wfg",): 36}, 36, 32)

    def test_check_every_trades_checks_for_throughput(self):
        trace = scenario_trace(
            ScenarioSpec(cycle_len=3, fan_out=2, sites=1, rounds=5)
        )
        dense = replay(trace, mode=DETECTION, check_every=1)
        sparse = replay(trace, mode=DETECTION, check_every=8)
        assert sparse.checks_run < dense.checks_run
        # The drain still analyses the final state: no lost verdicts.
        assert sparse.deadlocked and dense.deadlocked

    def test_throughput_and_stats_populated(self):
        trace = scenario_trace(
            ScenarioSpec(cycle_len=2, fan_out=2, sites=1, rounds=4)
        )
        outcome = replay(trace, mode=DETECTION)
        assert outcome.records_processed == len(trace)
        assert outcome.events_per_sec > 0
        assert outcome.stats.checks == outcome.checks_run
        assert outcome.stats.mean_edges >= 0


class TestReplayFromPath:
    def test_replay_accepts_a_path(self, tmp_path):
        from repro.trace.codec import save_trace

        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=1))
        path = save_trace(trace, tmp_path / "t.trace")
        assert replay(path, mode=DETECTION).deadlocked


@pytest.mark.parametrize("incremental", [False, True])
class TestEitherEngine:
    """Behaviour of the one run loop, whichever checker class it
    instantiates — each case once, both engines."""

    def test_avoidance_rejects_publish_records(self, incremental):
        """Distributed traces carry site publications; avoidance replay
        must fail loudly rather than report a silent 'no deadlock'."""
        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=2))
        with pytest.raises(ValueError, match="publish"):
            replay(trace, mode=AVOIDANCE, incremental=incremental)

    def test_snapshot_publications_replay(self, incremental):
        """Two sites' snapshot checkpoints merge into one crossed knot."""
        a = status_to_obj(waiting_on("p", 1, p=1, q=0))
        b = status_to_obj(waiting_on("q", 1, q=1, p=0))
        records = [
            ev.publish_delta(0, "A", make_snapshot(1, {"a": a}, "A1")),
            ev.publish_delta(1, "B", make_snapshot(1, {"b": b}, "B1")),
        ]
        outcome = replay(records, mode=DETECTION, incremental=incremental)
        assert outcome.deadlocked
        assert outcome.reports[0].tasks == ("a", "b")

    def test_delta_gap_in_a_trace_is_an_error(self, incremental):
        """A non-contiguous per-site delta stream is a recording bug:
        rejected instead of analysing a view that silently missed a
        change."""
        records = [
            ev.publish_delta(0, "A", make_snapshot(1, {}, "A1")),
            ev.publish_delta(
                1, "A",
                {"v": 3, "stream": "A1", "seq": 3, "kind": "delta",
                 "set": {}, "clear": []},
            ),
        ]
        with pytest.raises(DeltaSequenceError):
            replay(records, mode=DETECTION, incremental=incremental)

    def test_cross_site_duplicate_rejected_at_check_time(self, incremental):
        blob = status_to_obj(waiting_on("p", 1, p=1))
        records = [
            ev.publish_delta(0, "site0", make_snapshot(1, {"t1": blob}, "s0")),
            ev.publish_delta(1, "site1", make_snapshot(1, {"t1": blob}, "s1")),
        ]
        with pytest.raises(ValueError) as raised:
            replay(records, incremental=incremental)
        assert str(raised.value) == (
            "tasks ['t1'] published by several sites (last: site1)"
        )

    def test_overlap_resolved_before_the_check_replays_fine(self, incremental):
        """Check time, not arrival time: a duplicate withdrawn before
        the next cadence point never reaches a check."""
        blob = status_to_obj(waiting_on("p", 1, p=1))
        records = [
            ev.publish_delta(0, "site0", make_snapshot(1, {"t1": blob}, "s0")),
            ev.publish_delta(1, "site1", make_snapshot(1, {"t1": blob}, "s1")),
            ev.publish_delta(2, "site0", make_snapshot(2, {}, "s0")),
        ]
        outcome = replay(records, check_every=3, incremental=incremental)
        assert not outcome.deadlocked and outcome.checks_run == 1

    def test_trailing_changes_below_the_cadence_are_drained(self, incremental):
        trace = scenario_trace(
            ScenarioSpec(cycle_len=3, fan_out=2, sites=1, rounds=5)
        )
        dense = replay(trace, check_every=1, incremental=incremental)
        sparse = replay(trace, check_every=10 ** 6, incremental=incremental)
        assert sparse.checks_run == 1  # the drain, and only the drain
        assert sparse.deadlocked and dense.deadlocked
        assert ([r.cycle for r in sparse.reports]
                == [r.cycle for r in dense.reports])


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("model", list(GraphModel), ids=str)
class TestOneReportContract:
    """A check reports the canonical cycle only.  A second deadlock
    that persists behind it is masked, and is reported at the first
    check after the canonical one clears — under every model, whether
    the cycle comes from a rebuilt graph or the maintained partition."""

    A1, A2 = waiting_on("p", 1, p=1, q=0), waiting_on("q", 1, p=0, q=1)
    B1, B2 = waiting_on("r", 1, r=1, s=0), waiting_on("s", 1, r=0, s=1)

    def records(self):
        """Two crossed knots, a1/a2 on p/q and b1/b2 on r/s, then a1
        unblocks."""
        return [
            ev.block(0, "a1", self.A1),
            ev.block(1, "a2", self.A2),
            ev.block(2, "b1", self.B1),
            ev.block(3, "b2", self.B2),
            ev.unblock(4, "a1"),
        ]

    def test_masked_deadlock_reported_once_the_canonical_clears(
        self, model, incremental
    ):
        outcome = replay(self.records(), model=model, check_every=1,
                         incremental=incremental)
        assert [(set(r.tasks), r.detected_at) for r in outcome.reports] == [
            ({"a1", "a2"}, 1),
            ({"b1", "b2"}, 4),
        ]

    def test_a_cadence_past_both_knots_sees_only_the_survivor(
        self, model, incremental
    ):
        outcome = replay(self.records(), model=model, check_every=7,
                         incremental=incremental)
        assert [set(r.tasks) for r in outcome.reports] == [{"b1", "b2"}]

    def test_the_merged_site_view_keeps_the_same_contract(
        self, model, incremental
    ):
        """The same two knots published by two sites: site A's knot is
        canonical, and site B's is reported once A withdraws a1."""
        a1, a2, b1, b2 = map(status_to_obj, (self.A1, self.A2, self.B1, self.B2))
        records = [
            ev.publish_delta(0, "A", make_snapshot(1, {"a1": a1, "a2": a2}, "A")),
            ev.publish_delta(1, "B", make_snapshot(1, {"b1": b1, "b2": b2}, "B")),
            ev.publish_delta(2, "A", {
                "v": 3, "stream": "A", "seq": 2, "kind": "delta",
                "set": {}, "clear": ["a1"],
            }),
        ]
        outcome = replay(records, model=model, incremental=incremental)
        assert [(set(r.tasks), r.detected_at) for r in outcome.reports] == [
            ({"a1", "a2"}, 0),
            ({"b1", "b2"}, 2),
        ]


class TestIncrementalEngine:
    """The default, delta-maintained engine: the from-scratch engine's
    reports, at O(N) cost."""

    def make_dl_trace(self):
        return scenario_trace(ScenarioSpec(cycle_len=3, fan_out=2, rounds=2))

    def test_detection_reports_identical(self):
        trace = self.make_dl_trace()
        a = replay(trace, incremental=False)
        b = replay(trace)
        assert a.reports == b.reports
        assert a.checks_run == b.checks_run
        assert a.records_processed == b.records_processed

    @pytest.mark.parametrize("model", list(GraphModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("path", SINGLE_SITE, ids=lambda p: p.name)
    def test_avoidance_identical(self, path, model):
        a = replay(str(path), mode=AVOIDANCE, model=model, incremental=False)
        b = replay(str(path), mode=AVOIDANCE, model=model)
        assert a.reports == b.reports

    def test_distributed_bucket_diffing(self):
        """Publish records replay through task-level bucket deltas; the
        merged-view reports stay identical to the from-scratch merge."""
        trace = scenario_trace(
            ScenarioSpec(cycle_len=3, fan_out=2, sites=3, rounds=2)
        )
        a = replay(trace, incremental=False)
        b = replay(trace)
        assert a.reports == b.reports and a.deadlocked

    def test_cadence_above_one_still_identical(self):
        trace = self.make_dl_trace()
        for cadence in (2, 5, 100):
            assert (
                replay(trace, check_every=cadence).reports
                == replay(trace, check_every=cadence, incremental=False).reports
            )

    def test_incremental_runs_fewer_graph_builds(self):
        """The cost model: the incremental engine only materialises a
        snapshot when a cycle exists, so an ok-trace replay does no
        per-check graph builds at all (stats record the maintained WFG
        on every fast-path check)."""
        trace = scenario_trace(
            ScenarioSpec(cycle_len=3, fan_out=2, rounds=4, deadlock=False)
        )
        result = replay(trace)
        assert not result.deadlocked
        assert set(result.stats.model_counts) == {GraphModel.WFG}
