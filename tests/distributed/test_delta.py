"""Delta wire protocol unit tests: derivation, application, recovery.

The shared module (`repro.distributed.delta`) is the single source of
both the live Site/store derivation and replay's offline one, so these
tests pin its semantics directly: diff classification, sequence
contiguity, checkpoint behaviour, cross-site ownership, and the
equivalence of the maintained merge view with the plain reference fold
(``apply_delta_obj`` + ``merge_buckets``) that keeps it honest.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.events import waiting_on
from repro.core.incremental import IncrementalChecker
from repro.distributed import delta as delta_mod
from repro.distributed.delta import (
    DeltaMergeState,
    DeltaPublisher,
    DeltaSequenceError,
    apply_delta_obj,
    decode_blob,
    diff_buckets,
    encode_bucket,
    make_snapshot,
    merge_buckets,
)

CORPUS = Path(__file__).resolve().parents[1] / "trace" / "corpus"


def corpus_publication_traces():
    """Every corpus trace (both codecs) carrying publication records."""
    from repro.trace.codec import load_trace
    from repro.trace.events import RecordKind

    return [
        path for path in sorted(CORPUS.iterdir())
        if path.suffix in (".trace", ".jsonl")
        and any(
            rec.kind is RecordKind.PUBLISH_DELTA
            for rec in load_trace(path).records
        )
    ]


def bucket(**statuses):
    return encode_bucket(statuses)


class TestDiffBuckets:
    def test_classifies_set_and_clear(self):
        """A changed blob is set like a new one, in the new bucket's
        order; an unchanged one is not sent."""
        old = bucket(a=waiting_on("p", 1, p=1), b=waiting_on("q", 1, q=1),
                     d=waiting_on("s", 1, s=1))
        new = bucket(c=waiting_on("r", 1, r=1), b=waiting_on("q", 2, q=2),
                     d=waiting_on("s", 1, s=1))
        set_ops, clear_ops = diff_buckets(old, new)
        assert list(set_ops) == ["c", "b"]
        assert set_ops["b"] == new["b"]
        assert clear_ops == ["a"]

    def test_no_change_is_empty(self):
        b = bucket(a=waiting_on("p", 1, p=1))
        assert diff_buckets(b, dict(b)) == ({}, [])


class TestDeltaPublisher:
    def test_first_publication_is_a_snapshot(self):
        pub = DeltaPublisher("s0")
        obj = pub.prepare(bucket(a=waiting_on("p", 1, p=1)))
        assert obj["kind"] == "snapshot"
        assert obj["seq"] == 1
        assert set(obj["set"]) == {"a"}

    def test_subsequent_deltas_carry_only_the_change(self):
        pub = DeltaPublisher("s0")
        b1 = bucket(a=waiting_on("p", 1, p=1))
        obj = pub.prepare(b1)
        pub.commit(obj)
        b2 = dict(b1)
        b2.update(bucket(b=waiting_on("q", 1, q=1)))
        obj = pub.prepare(b2)
        assert obj["kind"] == "delta" and obj["seq"] == 2
        assert set(obj["set"]) == {"b"}
        assert not obj["clear"]
        assert set(obj) == {"v", "stream", "seq", "kind", "set", "clear"}

    def test_no_change_publishes_nothing(self):
        pub = DeltaPublisher("s0")
        b1 = bucket(a=waiting_on("p", 1, p=1))
        pub.commit(pub.prepare(b1))
        assert pub.prepare(dict(b1)) is None

    def test_uncommitted_changes_accumulate(self):
        """A store outage between prepare and commit must not lose the
        change: the next round re-derives it (same seq, merged ops)."""
        pub = DeltaPublisher("s0")
        pub.commit(pub.prepare(bucket(a=waiting_on("p", 1, p=1))))
        b2 = bucket(a=waiting_on("p", 1, p=1), b=waiting_on("q", 1, q=1))
        lost = pub.prepare(b2)  # never committed: the append failed
        b3 = dict(b2)
        b3.update(bucket(c=waiting_on("r", 1, r=1)))
        retry = pub.prepare(b3)
        assert retry["seq"] == lost["seq"] == 2
        assert set(retry["set"]) == {"b", "c"}

    def test_checkpoint_cadence(self, monkeypatch):
        monkeypatch.setattr(delta_mod, "CHECKPOINT_EVERY", 3)
        pub = DeltaPublisher("s0")
        kinds = []
        for i in range(8):
            b = bucket(**{f"t{i}": waiting_on("p", i + 1, p=i + 1)})
            obj = pub.prepare(b)
            pub.commit(obj)
            kinds.append(obj["kind"])
        # Snapshot first, then every third committed delta.
        assert kinds[0] == "snapshot"
        assert kinds.count("snapshot") >= 2
        assert kinds[1] == "delta"

    def test_forced_checkpoint_advances_seq(self):
        pub = DeltaPublisher("s0")
        pub.commit(pub.prepare(bucket(a=waiting_on("p", 1, p=1))))
        obj = pub.prepare_checkpoint(bucket(a=waiting_on("p", 1, p=1)))
        assert obj["kind"] == "snapshot" and obj["seq"] == 2


class TestApplyDeltaObj:
    def test_materialises_and_validates(self):
        buckets, cursors = {}, {}
        apply_delta_obj(
            buckets, cursors, "s0",
            make_snapshot(1, bucket(a=waiting_on("p", 1, p=1)), "s0"),
        )
        pub = DeltaPublisher("s0", stream="s0")
        pub.commit(pub.prepare(bucket(a=waiting_on("p", 1, p=1))))
        obj = pub.prepare(bucket(b=waiting_on("q", 1, q=1)))
        apply_delta_obj(buckets, cursors, "s0", obj)
        assert set(buckets["s0"]) == {"b"}
        assert cursors["s0"] == ("s0", 2)

    def test_gap_raises(self):
        buckets, cursors = {}, {}
        apply_delta_obj(
            buckets, cursors, "s0",
            make_snapshot(1, bucket(a=waiting_on("p", 1, p=1)), "s0"),
        )
        gap = {
            "v": 3, "stream": "s0", "seq": 3, "kind": "delta",
            "set": {}, "clear": ["a"],
        }
        with pytest.raises(DeltaSequenceError):
            apply_delta_obj(buckets, cursors, "s0", gap)

    def test_foreign_stream_raises(self):
        """Sequence numbers never compose across publisher
        incarnations: a contiguous-looking seq on another stream is a
        divergence, not a continuation."""
        buckets, cursors = {}, {}
        apply_delta_obj(buckets, cursors, "s0", make_snapshot(1, {}, "old"))
        alien = {
            "v": 3, "stream": "new", "seq": 2, "kind": "delta",
            "set": {}, "clear": [],
        }
        with pytest.raises(DeltaSequenceError):
            apply_delta_obj(buckets, cursors, "s0", alien)

    def test_snapshot_resets_any_cursor(self):
        buckets, cursors = {}, {"s0": ("old", 41)}
        apply_delta_obj(buckets, cursors, "s0", make_snapshot(1, {}, "new"))
        assert cursors["s0"] == ("new", 1) and buckets["s0"] == {}


class TestMergeBuckets:
    def test_is_the_disjoint_union_of_the_decoded_buckets(self):
        payloads = {
            "s0": encode_bucket({"t1": waiting_on("p", 1, p=1)}),
            "s1": encode_bucket({"t2": waiting_on("q", 1, q=1)}),
        }
        expected = {task: decode_blob(blob) for bucket in payloads.values()
                    for task, blob in bucket.items()}
        merged = merge_buckets(payloads).statuses
        assert merged == expected and list(merged) == ["t1", "t2"]

    def test_duplicate_task_error_text_matches_classic(self):
        blob = encode_bucket({"t1": waiting_on("p", 1, p=1)})
        with pytest.raises(ValueError, match="published by several sites"):
            merge_buckets({"s0": blob, "s1": blob})


class TestDeltaMergeState:
    def knot_buckets(self):
        return (
            bucket(a=waiting_on("p", 1, p=1, q=0)),
            bucket(b=waiting_on("q", 1, q=1, p=0)),
        )

    def test_feeds_checker_o_change(self):
        checker = IncrementalChecker()
        state = DeltaMergeState(checker)
        b0, b1 = self.knot_buckets()
        state.apply_obj("s0", make_snapshot(1, b0, "s0"))
        state.apply_obj("s1", make_snapshot(1, b1, "s1"))
        assert checker.check() is not None
        ops = state.ops_applied
        # Re-applying nothing costs nothing.
        assert state.ops_applied == ops

    def test_matches_scratch_checker_on_same_statuses(self):
        incremental = IncrementalChecker()
        state = DeltaMergeState(incremental)
        b0, b1 = self.knot_buckets()
        state.apply_obj("s0", make_snapshot(1, b0, "s0"))
        state.apply_obj("s1", make_snapshot(1, b1, "s1"))
        scratch = DeadlockChecker()
        report = scratch.check(snapshot=merge_buckets({"s0": b0, "s1": b1}))
        assert incremental.check() == report

    @pytest.mark.parametrize("engine", [DeadlockChecker, IncrementalChecker])
    def test_a_reordering_checkpoint_changes_no_report(self, engine):
        """A checkpoint re-publishing the same statuses in another
        bucket order feeds the checker no op and changes no report: a
        deadlock is a property of the blocked *set* (Definitions
        3.1/3.2), so the SG/AUTO report lists its tasks canonically.
        The maintained engine answers the stable deadlock from its
        cache."""
        ring = {
            f"a{i}": waiting_on(
                f"p{(i + 1) % 4}", 1, **{f"p{(i + 1) % 4}": 1, f"p{i}": 0}
            )
            for i in range(4)
        }
        checker = engine()
        view = DeltaMergeState(checker)
        turned = dict(reversed(ring.items()))
        view.apply_obj("s0", make_snapshot(1, encode_bucket(turned), "s0"))
        first = checker.check()
        assert first.tasks == ("a0", "a1", "a2", "a3")
        assert first == DeadlockChecker().check(snapshot=merge_buckets(
            {"s0": encode_bucket(ring)}))
        ops = view.ops_applied
        for seq, bucket_order in enumerate((ring, turned, ring), start=2):
            view.apply_obj("s0", make_snapshot(
                seq, encode_bucket(bucket_order), "s0"))
            assert view.ops_applied == ops  # nothing reached the checker
            second = checker.check()
            assert second == first
            if engine is IncrementalChecker:
                assert second is first

    def test_drop_site_clears_its_tasks(self):
        checker = IncrementalChecker()
        state = DeltaMergeState(checker)
        b0, b1 = self.knot_buckets()
        state.apply_obj("s0", make_snapshot(1, b0, "s0"))
        state.apply_obj("s1", make_snapshot(1, b1, "s1"))
        assert checker.check() is not None
        state.drop_site("s1")
        assert checker.check() is None
        assert state.sites() == ["s0"]

    def test_conflict_raises_at_check_time_only(self):
        checker = IncrementalChecker()
        state = DeltaMergeState(checker)
        blob = bucket(t=waiting_on("p", 1, p=1))
        state.apply_obj("s0", make_snapshot(1, blob, "s0"))
        state.apply_obj("s1", make_snapshot(1, blob, "s1"))  # duplicate owner
        with pytest.raises(ValueError, match="several sites"):
            state.raise_on_conflict()
        # The overlap resolves: s1 retracts its copy.
        state.apply_obj(
            "s1",
            {"v": 3, "stream": "s1", "seq": 2, "kind": "delta",
             "set": {}, "clear": ["t"]},
        )
        state.raise_on_conflict()  # no longer raises
        assert checker.check() is None or True  # view consistent

    def test_reset_site_fast_forwards_cursor(self):
        checker = IncrementalChecker()
        state = DeltaMergeState(checker)
        b0, _ = self.knot_buckets()
        state.reset_site("s0", "ck", 17, b0)
        assert state.cursor("s0") == ("ck", 17)
        assert set(state.buckets["s0"]) == {"a"}


class TestMalformedSnapshots:
    def test_snapshot_with_delta_ops_rejected_everywhere(self):
        """A snapshot is its ``set`` section; one naming tasks to clear
        is refused by the shared validation gate before any consumer
        state can move."""
        from repro.distributed.store import InMemoryStore

        bad = {
            "v": 3, "stream": "S", "seq": 1, "kind": "snapshot",
            "set": bucket(a=waiting_on("p", 1, p=1)), "clear": ["b"],
        }
        with pytest.raises(ValueError, match="snapshot"):
            apply_delta_obj({}, {}, "s0", bad)
        with pytest.raises(ValueError, match="snapshot"):
            DeltaMergeState(IncrementalChecker()).apply_obj("s0", bad)
        with pytest.raises(ValueError, match="snapshot"):
            InMemoryStore().append_delta("s0", bad)


class TestAdaptiveCadence:
    """The byte-ratio checkpoint rule layered over the count ceiling."""

    def _grow(self, pub, rounds):
        """Commit ``rounds`` cumulative single-task additions; return
        the committed wire kinds after the initial snapshot."""
        kinds = []
        acc = {}
        for i in range(rounds):
            acc.update(bucket(**{f"t{i}": waiting_on("p", i + 1, p=i + 1)}))
            obj = pub.prepare(dict(acc))
            pub.commit(obj)
            kinds.append(obj["kind"])
        return kinds

    def test_ratio_triggers_snapshot_before_count_ceiling(self, monkeypatch):
        # Deltas on a tiny bucket are nearly snapshot-sized, so a low
        # ratio checkpoints long before the count ceiling of 64.
        monkeypatch.setattr(delta_mod, "CHECKPOINT_RATIO", 1.0)
        pub = DeltaPublisher("s0", adaptive=True)
        kinds = self._grow(pub, 10)
        assert kinds[0] == "snapshot"
        assert "snapshot" in kinds[1:], "ratio rule never fired"

    def test_fixed_cadence_when_adaptive_off(self, monkeypatch):
        monkeypatch.setattr(delta_mod, "CHECKPOINT_RATIO", 1.0)
        pub = DeltaPublisher("s0", adaptive=False)
        kinds = self._grow(pub, 10)
        assert kinds[0] == "snapshot"
        assert kinds[1:] == ["delta"] * 9

    def test_delta_bytes_reset_on_snapshot(self):
        """A committed delta grows the accumulator; a committed
        snapshot zeroes it (the ratio restarts from the new base)."""
        pub = DeltaPublisher("s0", adaptive=False)
        pub.commit(pub.prepare(bucket(a=waiting_on("p", 1, p=1))))
        pub.commit(
            pub.prepare(
                bucket(a=waiting_on("p", 1, p=1), b=waiting_on("q", 1, q=1))
            )
        )
        assert pub._delta_bytes > 0
        pub.commit(
            pub.prepare_checkpoint(
                bucket(a=waiting_on("p", 1, p=1), b=waiting_on("q", 1, q=1))
            )
        )
        assert pub._delta_bytes == 0

    def test_count_ceiling_still_applies_when_adaptive(self, monkeypatch):
        # A huge ratio disables the byte rule; the ceiling still fires.
        monkeypatch.setattr(delta_mod, "CHECKPOINT_EVERY", 3)
        monkeypatch.setattr(delta_mod, "CHECKPOINT_RATIO", 1e9)
        pub = DeltaPublisher("s0", adaptive=True)
        kinds = self._grow(pub, 8)
        assert kinds.count("snapshot") >= 2


class TestTraceContext:
    """carry_trace stamps deterministic causal context on the wire."""

    def test_delta_carries_deterministic_span(self):
        from repro.distributed.delta import delta_trace_context

        pub = DeltaPublisher(
            "s0", stream="tok", adaptive=False, carry_trace=True
        )
        snap = pub.prepare(bucket(a=waiting_on("p", 1, p=1)))
        assert snap["trace"] == delta_trace_context("s0", "tok", 1)
        pub.commit(snap)
        obj = pub.prepare(
            bucket(a=waiting_on("p", 1, p=1), b=waiting_on("q", 1, q=1))
        )
        assert obj["kind"] == "delta"
        assert obj["trace"] == delta_trace_context("s0", "tok", 2)

    def test_trace_context_matches_span_id_derivation(self):
        from repro.distributed.delta import delta_trace_context
        from repro.obs.tracing import span_id

        ctx = delta_trace_context("s0", "tok", 7)
        assert ctx == {"span": span_id("delta", "s0", "tok", 7)}

    def test_no_trace_field_by_default(self):
        pub = DeltaPublisher("s0", stream="tok", adaptive=False)
        snap = pub.prepare(bucket(a=waiting_on("p", 1, p=1)))
        assert "trace" not in snap
        pub.commit(snap)
        obj = pub.prepare(
            bucket(a=waiting_on("p", 1, p=1), b=waiting_on("q", 1, q=1))
        )
        assert "trace" not in obj

    def test_forced_checkpoint_carries_trace(self):
        from repro.distributed.delta import delta_trace_context

        pub = DeltaPublisher(
            "s0", stream="tok", adaptive=False, carry_trace=True
        )
        pub.commit(pub.prepare(bucket(a=waiting_on("p", 1, p=1))))
        obj = pub.prepare_checkpoint(bucket(a=waiting_on("p", 1, p=1)))
        assert obj["kind"] == "snapshot"
        assert obj["trace"] == delta_trace_context("s0", "tok", 2)


class TestDecodedView:
    """The merge view holds no decoded status of its own: its merged
    snapshot reads the fed checker's objects, must stay
    indistinguishable from re-merging the buckets, and no blob may be
    decoded more than once."""

    SITES = ("s0", "s1", "s2")
    TASKS = tuple(f"t{i}" for i in range(6))

    @staticmethod
    def assert_same_merge(view):
        try:
            expected = merge_buckets(view.buckets).statuses
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                view.merged_snapshot()
            assert str(raised.value) == str(exc)
            with pytest.raises(ValueError):
                view.raise_on_conflict()
            return
        merged = view.merged_snapshot().statuses
        assert merged == expected
        assert list(merged) == list(expected)
        # The very objects the checker holds: a revalidation passes.
        store = view.checker.dependency
        assert all(store.is_current(t, s) for t, s in merged.items())

    def random_bucket(self, rng):
        tasks = rng.sample(self.TASKS, rng.randrange(len(self.TASKS)))
        return bucket(**{
            t: waiting_on("p", rng.randrange(1, 4), p=rng.randrange(3))
            for t in tasks
        })

    def random_step(self, rng, view):
        site = rng.choice(self.SITES)
        op = rng.choice(
            ("snapshot", "delta", "delta", "bucket", "reset", "drop")
        )
        cursor = view.cursor(site)
        if op == "delta" and cursor is not None:
            view.apply_obj(site, {
                "v": 3, "stream": cursor[0], "seq": cursor[1] + 1,
                "kind": "delta", "set": self.random_bucket(rng),
                "clear": rng.sample(self.TASKS, rng.randrange(3)),
            })
        elif op in ("snapshot", "delta"):
            view.apply_obj(site, make_snapshot(
                rng.randrange(1, 50), self.random_bucket(rng),
                f"st{rng.randrange(3)}",
            ))
        elif op == "bucket":
            view.apply_bucket(site, self.random_bucket(rng))
        elif op == "reset":
            view.reset_site(site, "ck", rng.randrange(1, 50),
                            self.random_bucket(rng))
        else:
            view.drop_site(site)

    @pytest.mark.parametrize("seed", range(25))
    def test_merged_snapshot_equals_bucket_merge(self, seed):
        rng = random.Random(seed)
        view = DeltaMergeState(IncrementalChecker())
        conflicts = 0
        for _ in range(120):
            self.random_step(rng, view)
            self.assert_same_merge(view)
            conflicts += bool(view.conflicted)
        assert conflicts  # the walk does reach cross-site overlaps

    def test_failed_decode_leaves_the_view_untouched(self):
        from repro.trace.events import TraceFormatError

        view = DeltaMergeState(IncrementalChecker())
        good = bucket(a=waiting_on("p", 1, p=1))
        view.apply_obj("s0", make_snapshot(1, good, "s0"))
        bad = dict(good, b={"waits": "nonsense"})
        for _ in range(2):  # a consumer retries the same snapshot
            with pytest.raises(TraceFormatError):
                view.apply_obj("s0", make_snapshot(2, bad, "s0"))
            assert view.buckets["s0"] == good and view.cursor_seq("s0") == 1
            self.assert_same_merge(view)

    @pytest.mark.parametrize("engine", [DeadlockChecker, IncrementalChecker])
    def test_failed_delta_decode_leaves_view_and_checker_untouched(self, engine):
        """One malformed blob in a delta's ``set``, before or after the
        good ones, must not half-apply: the good ops beside it stay out of the buckets, the
        merged snapshot, the counters and the fed checker, and the
        cursor does not move — also when the consumer retries."""
        from repro.trace.events import TraceFormatError

        checker = engine()
        view = DeltaMergeState(checker)
        good = bucket(a=waiting_on("p", 1, p=1), c=waiting_on("r", 1, r=1))
        view.apply_obj("s0", make_snapshot(1, good, "s0"))

        def state():
            return (
                {site: dict(b) for site, b in view.buckets.items()},
                dict(view.merged_snapshot().statuses),
                dict(view.cursors),
                view.ops_applied,
                dict(checker.dependency.snapshot().statuses),
            )

        before = state()
        fresh = bucket(a=waiting_on("p", 2, p=2), b=waiting_on("q", 1, q=1))
        delta = {
            "v": 3, "stream": "s0", "seq": 2, "kind": "delta",
            "set": fresh, "clear": ["c"],
        }
        bad = {"z": {"waits": "oops"}}
        for ops in ({**bad, **fresh}, {**fresh, **bad}):
            half = dict(delta, set=ops)
            for _ in range(2):  # sync re-fetches the same delta every round
                with pytest.raises(TraceFormatError):
                    view.apply_obj("s0", half)
                assert state() == before
                self.assert_same_merge(view)
        # The well-formed delta still applies afterwards.
        view.apply_obj("s0", delta)
        assert list(view.merged_snapshot().statuses) == ["a", "b"]
        assert set(checker.dependency.snapshot().statuses) == {"a", "b"}

    def test_corpus_publications_cover_recorded_and_generated(self):
        names = {path.name for path in corpus_publication_traces()}
        assert {"recorded-cluster-dl.trace", "recorded-cluster-delta-dl.trace"} <= names
        assert {"cycle-L2-F2-S2-R1-dl.trace", "cycle-L2-F2-S2-R1-dl.jsonl"} <= names

    @pytest.mark.parametrize(
        "path", corpus_publication_traces(), ids=lambda p: p.name
    )
    def test_corpus_streams_match_the_plain_fold(self, path):
        """The oracle both replay engines now share a view with: after
        every publication record of every corpus trace, the view's
        merged snapshot equals — values and key order —
        ``merge_buckets`` over buckets folded by the plain
        ``apply_delta_obj``."""
        from repro.trace.codec import load_trace
        from repro.trace.events import RecordKind

        view = DeltaMergeState(DeadlockChecker())
        buckets, cursors = {}, {}
        for rec in load_trace(path).records:
            if rec.kind is not RecordKind.PUBLISH_DELTA:
                continue
            apply_delta_obj(buckets, cursors, rec.site, rec.payload)
            view.apply_obj(rec.site, rec.payload)
            assert view.buckets == buckets
            assert list(view.buckets) == list(buckets)
            expected = merge_buckets(buckets).statuses
            merged = view.merged_snapshot().statuses
            assert merged == expected
            assert list(merged) == list(expected)
            fed = view.checker.dependency.snapshot().statuses
            assert {t: (s.waits, s.registered) for t, s in fed.items()} == {
                t: (s.waits, s.registered) for t, s in expected.items()
            }

    def test_cyclic_checks_decode_each_blob_once(self, monkeypatch):
        from repro.distributed import delta
        from repro.distributed.detector import DistributedChecker
        from repro.distributed.store import InMemoryStore

        decoded = []
        real = delta.decode_blob
        monkeypatch.setattr(
            delta, "decode_blob", lambda blob: decoded.append(1) or real(blob)
        )
        ring, rounds = 48, 6

        def status(i):
            return waiting_on(
                f"c{i}", 1, **{f"c{i}": 1, f"c{(i - 1) % ring}": 0}
            )

        store = InMemoryStore()
        checker = DistributedChecker(store)
        store.append_delta("A", make_snapshot(
            1, bucket(**{f"a{i}": status(i) for i in range(ring - 1)}), "A",
        ))
        closing = bucket(**{f"a{ring - 1}": status(ring - 1)})
        for index in range(rounds):
            assert checker.check_global() is None
            store.append_delta("B", make_snapshot(1, closing, f"B{index}"))
            report = checker.check_global()
            assert report is not None and len(report.tasks) == ring
            assert len(checker.view.merged_snapshot().statuses) == ring
            store.delete("B")
        # One decode per task set — not 2 x checks x tasks.
        assert len(decoded) == (ring - 1) + rounds
        assert checker.checker.stats.cycles_found == rounds
