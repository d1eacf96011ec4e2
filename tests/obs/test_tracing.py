"""Causal tracing: deterministic IDs, span buffers, provenance, exports.

Pins the tentpole contracts of :mod:`repro.obs.tracing`:

* span IDs derive from trace-event ordinals via BLAKE2b — identical
  across processes and ``PYTHONHASHSEED``, never ``hash()``;
* replay-attached provenance maps every cycle edge to real record
  offsets, and both replay engines attach it identically;
* the Chrome trace-event export passes its own schema validation and
  is a pure function of the spans;
* the live path (runtime → site → store → checker) emits spans on an
  enabled tracer and stays silent on :data:`NULL_TRACER`.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    OriginTracker,
    TraceSpan,
    Tracer,
    attach_provenance,
    chrome_trace_from_records,
    render_chrome_json,
    render_report_provenance,
    span_id,
    spans_to_chrome,
    validate_chrome_trace,
)
from repro.trace.corpus import ScenarioSpec, scenario_trace
from repro.trace.replay import AVOIDANCE, DETECTION, replay


class TestSpanId:
    def test_deterministic_and_distinct(self):
        assert span_id("delta", "s0", "tok", 3) == span_id("delta", "s0", "tok", 3)
        assert span_id("delta", "s0", "tok", 3) != span_id("delta", "s0", "tok", 4)
        assert len(span_id("x")) == 16

    def test_stable_across_hash_seeds(self):
        """The reason span_id exists: hash() moves with PYTHONHASHSEED,
        BLAKE2b does not."""
        code = "from repro.obs.tracing import span_id; print(span_id('a', 1, 'b'))"
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
            ).stdout.strip()
            for seed in ("0", "1", "424242")
        }
        assert len(outs) == 1
        assert outs == {span_id("a", 1, "b")}

    def test_separator_prevents_part_gluing(self):
        assert span_id("ab", "c") != span_id("a", "bc")


class TestTracer:
    def test_event_begin_end_complete(self):
        tracer = Tracer()
        tracer.event("e", "track", ordinal=5, answer=42)
        tracer.begin("s", "track", key="k", ordinal=7)
        tracer.end("k", ordinal=9, outcome="ok")
        tracer.complete("c", "track", 10, ordinal=12)
        spans = tracer.spans()
        assert [s.name for s in spans] == ["e", "s", "c"]
        event, span, comp = spans
        assert event.instant and dict(event.args)["answer"] == 42
        assert (span.start, span.end) == (7, 9)
        assert dict(span.args)["outcome"] == "ok"
        assert (comp.start, comp.end) == (10, 12)

    def test_end_without_begin_is_noop(self):
        tracer = Tracer()
        tracer.end("never-opened")
        assert len(tracer) == 0

    def test_ring_buffer_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(tracing, "SPAN_BUFFER", 3)
        tracer = Tracer()
        for i in range(5):
            tracer.event(f"e{i}", "t", ordinal=i)
        assert [s.name for s in tracer.spans()] == ["e2", "e3", "e4"]

    def test_live_ordinals_are_monotonic(self):
        tracer = Tracer()
        tracer.event("a", "t")
        tracer.event("b", "t")
        a, b = tracer.spans()
        assert a.start < b.start

    def test_clear(self):
        tracer = Tracer()
        tracer.event("e", "t")
        tracer.begin("s", "t", key="k")
        tracer.clear()
        tracer.end("k")  # open table cleared too: nothing to close
        assert len(tracer) == 0

    def test_span_identity(self):
        span = TraceSpan("n", "t", 1, 4)
        assert span.id == span_id("n", "t", 1, 4)
        assert not span.instant
        assert TraceSpan("n", "t", 3, 3).instant


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.event("e", "t")
        NULL_TRACER.begin("s", "t", key="k")
        NULL_TRACER.end("k")
        NULL_TRACER.complete("c", "t", 0)
        assert NULL_TRACER.spans() == []
        assert isinstance(NULL_TRACER, NullTracer)

    def test_chrome_export_is_empty(self):
        doc = NULL_TRACER.to_chrome()
        validate_chrome_trace(doc)
        assert doc["traceEvents"] == []


class TestOriginTracker:
    def test_block_unblock_fold(self):
        from repro.core.events import waiting_on
        from repro.trace import events as ev

        tracker = OriginTracker()
        tracker.observe(ev.block(0, "t1", waiting_on("p", 1, p=1)))
        assert tracker.origins["t1"].ordinal == 0
        assert tracker.origins["t1"].kind == "block"
        tracker.observe(ev.unblock(1, "t1"))
        assert "t1" not in tracker.origins
        assert tracker.last_ordinal == 1

    def test_publish_delta_fold_carries_site_stream_seq(self):
        from repro.core.events import waiting_on
        from repro.distributed.delta import DeltaPublisher, encode_bucket
        from repro.trace import events as ev

        pub = DeltaPublisher("s0", stream="tok", adaptive=False)
        obj = pub.prepare(encode_bucket({"t1": waiting_on("p", 1, p=1)}))
        pub.commit(obj)
        tracker = OriginTracker()
        tracker.observe(ev.publish_delta(4, "s0", obj))
        origin = tracker.origins["t1"]
        assert (origin.ordinal, origin.kind) == (4, "publish_delta")
        assert (origin.site, origin.stream, origin.seq) == ("s0", "tok", 1)
        assert origin.describe() == (
            "publish_delta @record 4 (site s0, stream tok, seq 1)"
        )

    def test_observe_delta_is_the_record_free_publish_delta_fold(self):
        """A live consumer folds the wire object directly; the result is
        what observing the equivalent trace record gives."""
        from repro.core.events import waiting_on
        from repro.distributed.delta import DeltaPublisher, encode_bucket
        from repro.trace import events as ev

        pub = DeltaPublisher("s0", stream="tok", adaptive=False)
        buckets = [
            {"t1": waiting_on("p", 1, p=1), "t2": waiting_on("q", 1, q=1)},
            {"t1": waiting_on("p", 2, p=2), "t3": waiting_on("r", 1, r=1)},
        ]
        live, recorded = OriginTracker(), OriginTracker()
        for ordinal, statuses in enumerate(buckets, 7):
            obj = pub.prepare(encode_bucket(statuses))
            pub.commit(obj)
            live.observe_delta(ordinal, "s0", obj)
            recorded.observe(ev.publish_delta(ordinal, "s0", obj))
        assert live.origins == recorded.origins
        assert set(live.origins) == {"t1", "t3"}
        assert live.last_ordinal == recorded.last_ordinal == 8
        assert live._site_tasks == recorded._site_tasks


class TestProvenance:
    def deadlock_outcome(self, **kwargs):
        trace = scenario_trace(ScenarioSpec(cycle_len=3, fan_out=2, sites=1))
        return trace, replay(trace, mode=DETECTION, **kwargs)

    def test_every_edge_resolves_to_a_real_record(self):
        trace, outcome = self.deadlock_outcome()
        report = outcome.reports[0]
        assert report.provenance
        # Reported at the check that first saw the cycle — at or before
        # the trace's end, never before the record that closed it.
        assert report.detected_at <= trace.records[-1].seq
        by_seq = {rec.seq: rec for rec in trace}
        for edge in report.provenance:
            for origin in (edge.source_origin, edge.target_origin):
                rec = by_seq[origin.ordinal]  # a real record offset
                assert rec.kind.value == origin.kind

    def test_engines_attach_identical_provenance(self):
        trace, maintained = self.deadlock_outcome()
        scratch = replay(trace, mode=DETECTION, incremental=False)
        assert scratch.reports == maintained.reports
        assert scratch.reports[0].provenance

    def test_detection_lag_counts_records_past_the_close(self):
        trace, outcome = self.deadlock_outcome(check_every=100)
        report = outcome.reports[0]
        # The drain check runs at the last record; the cycle closed at
        # the last contributing block — lag is their ordinal distance.
        closing = report.detected_at - report.detection_lag
        assert closing <= report.detected_at == trace.records[-1].seq
        assert report.detection_lag >= 0

    def test_avoidance_refusal_gets_provenance_too(self):
        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=1))
        outcome = replay(trace, mode=AVOIDANCE)
        report = outcome.reports[0]
        assert report.avoided and report.provenance
        assert report.detection_lag == 0  # refused at the closing record

    def test_lag_histogram_lands_in_metrics(self):
        _, outcome = self.deadlock_outcome()
        lag = outcome.metrics.get("repro_detection_lag_records")
        assert lag.count_of() == 1
        assert not lag.volatile  # part of the deterministic snapshot
        seconds = outcome.metrics.get("repro_detection_lag_seconds")
        assert seconds.volatile and seconds.count_of() == 1

    def test_attach_provenance_direct(self):
        from repro.core.events import waiting_on
        from repro.core.report import DeadlockReport
        from repro.core.selection import GraphModel
        from repro.trace import events as ev

        tracker = OriginTracker()
        s1, s2 = waiting_on("p", 1, p=1, q=0), waiting_on("q", 1, q=1, p=0)
        tracker.observe(ev.block(3, "a", s1))
        tracker.observe(ev.block(9, "b", s2))
        report = DeadlockReport(
            tasks=("a", "b"), events=(), cycle=("a", "b", "a"),
            model_used=GraphModel.WFG, edge_count=2,
        )
        enriched, lag_s = attach_provenance(
            report, tracker, {"a": s1, "b": s2}
        )
        assert enriched.detected_at == 9 and enriched.detection_lag == 0
        assert lag_s >= 0.0
        assert [e.source_origin.ordinal for e in enriched.provenance] == [3, 9]


class TestChromeExport:
    def test_spans_to_chrome_is_deterministic_and_valid(self):
        spans = [
            TraceSpan("b", "t2", 4, 4),
            TraceSpan("a", "t1", 1, 5, args=(("k", "v"),)),
        ]
        doc = spans_to_chrome(spans)
        validate_chrome_trace(doc)
        assert doc == spans_to_chrome(list(reversed(spans)))
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases == ["M", "M", "X", "i"]  # metadata, span, instant
        assert render_chrome_json(doc) == render_chrome_json(doc)

    def test_chrome_from_records_covers_blocks_publishes_reports(self):
        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=2))
        outcome = replay(trace, mode=DETECTION)
        doc = chrome_trace_from_records(trace, outcome.reports)
        validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "site.publish_delta" in names
        assert "deadlock.report" in names
        report_events = [
            e for e in doc["traceEvents"] if e["name"] == "deadlock.report"
        ]
        assert report_events[0]["args"]["detection_lag_records"] >= 0

    @pytest.mark.parametrize("bad", [
        None,
        {"traceEvents": "nope"},
        {"traceEvents": [{"ph": "X"}]},                      # missing fields
        {"traceEvents": [{"name": "e", "ph": "Z", "pid": 1, "tid": 1}]},
        {"traceEvents": [{"name": "e", "ph": "X", "pid": 1, "tid": 1,
                          "ts": -1}]},
        {"traceEvents": [{"name": "e", "ph": "X", "pid": 1, "tid": 1,
                          "ts": 0}]},                         # X without dur
        {"traceEvents": [{"name": "e", "ph": "i", "pid": 1, "tid": 1,
                          "ts": 0}]},                         # i without scope
    ])
    def test_validation_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)


class TestWaterfall:
    def test_render_contains_edges_lag_and_bars(self):
        trace = scenario_trace(ScenarioSpec(cycle_len=3, fan_out=1, sites=1))
        outcome = replay(trace, mode=DETECTION)
        text = render_report_provenance(outcome.reports[0], 1)
        assert text.startswith("report 1: barrier deadlock detected")
        assert "detection lag" in text
        assert "waterfall (records" in text
        assert "|=" in text or "|." in text
        # Deterministic: same report renders to the same bytes.
        assert text == render_report_provenance(outcome.reports[0], 1)

    def test_unenriched_report_renders_placeholder(self):
        from repro.core.report import DeadlockReport
        from repro.core.selection import GraphModel

        bare = DeadlockReport(
            tasks=("a",), events=(), cycle=("a", "a"),
            model_used=GraphModel.WFG, edge_count=1,
        )
        assert "provenance: not attached" in render_report_provenance(bare, 1)


class TestLivePropagation:
    def test_runtime_hooks_span_blocks(self, runtime_factory):
        import threading

        from repro.runtime.phaser import Phaser

        tracer = Tracer()
        runtime = runtime_factory("detection", tracer=tracer)
        ph = Phaser(runtime, register_self=True, name="p")
        task = runtime.spawn(
            lambda: ph.arrive_and_await_advance(), register=[ph], name="w"
        )
        deadline = threading.Event()
        for _ in range(2000):
            if any(s.name == "task.blocked" for s in tracer.spans()):
                break
            deadline.wait(0.002)
        ph.arrive_and_deregister()
        task.join(5)
        blocked = [s for s in tracer.spans() if s.name == "task.blocked"]
        assert blocked and blocked[0].track.startswith("task:")

    def test_site_emits_publish_store_sync_spans(self):
        from repro.distributed.site import Site
        from repro.distributed.store import InMemoryStore

        tracer = Tracer()
        store = InMemoryStore(tracer=tracer)
        site = Site("s0", store, tracer=tracer)
        assert site.publisher.carry_trace  # wire context rides along
        site.poll_detection()
        names = {s.name for s in tracer.spans()}
        assert {"site.publish", "store.append", "checker.sync",
                "site.check"} <= names
        append = next(s for s in tracer.spans() if s.name == "store.append")
        args = dict(append.args)
        assert args["site"] == "s0" and "span" in args  # the wire context

    def test_replica_heal_emits_event(self):
        from repro.core.events import waiting_on
        from repro.distributed.delta import DeltaPublisher, encode_bucket
        from repro.distributed.store import InMemoryStore, ReplicatedStore

        tracer = Tracer()
        r1, r2 = InMemoryStore(name="r1"), InMemoryStore(name="r2")
        rs = ReplicatedStore([r1, r2], tracer=tracer)
        pub = DeltaPublisher("site-a", adaptive=False)
        delta = pub.prepare(encode_bucket({}))
        rs.append_delta("site-a", delta)
        pub.commit(delta)
        # r1 misses a write, comes back stale; the next write heals it.
        r1.set_available(False)
        delta = pub.prepare(encode_bucket({"t1": waiting_on("e", 1, e=1)}))
        rs.append_delta("site-a", delta)
        pub.commit(delta)
        r1.set_available(True)
        delta = pub.prepare(encode_bucket({}))
        rs.append_delta("site-a", delta)
        pub.commit(delta)
        heals = [s for s in tracer.spans() if s.name == "replica.heal"]
        assert heals and dict(heals[0].args)["trigger"] == "write"

    def test_null_tracer_keeps_live_paths_silent(self):
        from repro.distributed.site import Site
        from repro.distributed.store import InMemoryStore

        site = Site("s0", InMemoryStore())
        assert not site.publisher.carry_trace
        site.poll_detection()
        assert site.tracer is NULL_TRACER and len(NULL_TRACER) == 0


class TestOpenSpansInChrome:
    """Begun-but-unfinished spans must surface in the Chrome export:
    a deadlocked runtime's tasks are blocked *right now*, and an
    export that only showed closed spans would render a deadlock as
    an empty document."""

    def test_open_span_becomes_begin_event(self):
        tracer = Tracer()
        tracer.begin("task.blocked", "task:t1", key="t1", waits="p#1")
        doc = tracer.to_chrome()
        validate_chrome_trace(doc)
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        assert len(begins) == 1
        assert begins[0]["name"] == "task.blocked"
        assert begins[0]["args"]["waits"] == "p#1"
        assert tracer.spans() == []  # the span is still open

    def test_ended_span_leaves_the_open_set(self):
        tracer = Tracer()
        tracer.begin("task.blocked", "task:t1", key="t1")
        tracer.end("t1")
        doc = tracer.to_chrome()
        assert [e["ph"] for e in doc["traceEvents"] if e["ph"] != "M"] == ["X"]

    def test_open_span_on_fresh_track_gets_a_tid(self):
        tracer = Tracer()
        tracer.event("store.append", "store:s", site="s0")
        tracer.begin("task.blocked", "task:t9", key="t9")
        doc = tracer.to_chrome()
        validate_chrome_trace(doc)
        meta = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert meta == {"store:s", "task:t9"}
