"""Corpus generator tests: grid coverage, ground truth, prefix safety."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.trace.cli import build_parser, main
from repro.trace.codec import load_trace
from repro.trace.corpus import (
    FAMILIES,
    ScenarioSpec,
    build_trace,
    generate_corpus,
    scenario_trace,
    verify_corpus,
    write_corpus,
)
from repro.trace.events import RecordKind
from repro.trace.replay import replay


def _names_hash(names) -> str:
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


def _grid_names(grid: str) -> list:
    """Every family's spec names under its ``grid`` ("smoke"/"default"),
    in table order — the order ``gen`` generates them."""
    return [
        spec.name
        for family in FAMILIES.values()
        for spec in family.specs(getattr(family, grid))
    ]


class TestFamilyTable:
    """The contract every row of ``FAMILIES`` keeps, stated once."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_grids_are_keyed_by_spec_fields(self, name):
        family = FAMILIES[name]
        fields = {f.name for f in dataclasses.fields(family.spec)}
        for grid in (family.default, family.smoke):
            assert set(grid) <= fields
            assert list(grid) == list(family.default)  # same product order

    @pytest.mark.parametrize("name", FAMILIES)
    def test_flags_map_gen_options_to_grid_axes(self, name):
        family = FAMILIES[name]
        options = vars(build_parser().parse_args(["gen"]))
        for flag, axis in family.flags.items():
            assert flag in options
            assert axis in family.default

    @pytest.mark.parametrize("name", FAMILIES)
    def test_smoke_grid_verifies(self, name):
        family = FAMILIES[name]
        specs = family.specs(family.smoke)
        assert specs and all(type(s) is family.spec for s in specs)
        assert all(ok for _, ok in verify_corpus(specs))

    @pytest.mark.parametrize("grid", ["smoke", "default"])
    def test_spec_names_are_unique_across_families(self, grid):
        names = _grid_names(grid)
        assert len(set(names)) == len(names)

    def test_build_trace_rejects_a_non_spec(self):
        with pytest.raises(TypeError):
            build_trace(object())

    # Hashes of the ordered spec-name lists, computed at the commit
    # before the family table existed (six ``*_grid_specs`` functions
    # over twelve grid constants): the table generates the same corpus
    # in the same order.
    @pytest.mark.parametrize("grid,count,digest", [
        ("smoke", 36,
         "337d19646bd6a2f6c168ee56e2320456b39111a31a397456b03193526d82fc30"),
        ("default", 76,
         "7d77e191d0bf419b514f2265b6966319b0b22ad369c2f5f0d23c55bb44c8c826"),
    ])
    def test_grid_order_is_pinned(self, grid, count, digest):
        names = _grid_names(grid)
        assert len(names) == count
        assert _names_hash(names) == digest

    def test_gen_overrides_write_the_pinned_names(self, tmp_path, capsys):
        """All five override flags at once.  Churn keeps ignoring
        ``--rounds``; nearmiss keeps reading ``--cycle-lens``."""
        assert main([
            "gen", "--out", str(tmp_path), "--cycle-lens", "2,5",
            "--fan-outs", "3", "--sites", "3", "--rounds", "1,2",
            "--task-counts", "64", "--codec", "jsonl",
        ]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 52
        assert _names_hash(names) == (
            "27db9e20ee23fef4ab13acd9c87a196fcb177c47d35f8eb70949062cb10de623"
        )
        assert "churn-N4-W2-R4-S3-dl.jsonl" in names
        assert "nearmiss-L5-R2-S3-hit-ok.jsonl" in names


class TestSpecs:
    def test_grid_is_the_cross_product(self):
        specs = FAMILIES["cycle"].specs(dict(
            cycle_len=(2, 3), fan_out=(1, 2), sites=(1,), rounds=(0, 1),
            deadlock=(True, False),
        ))
        assert len(specs) == 2 * 2 * 1 * 2 * 2
        assert len({s.name for s in specs}) == len(specs)

    def test_axes_left_out_keep_the_spec_defaults(self):
        specs = FAMILIES["cycle"].specs(dict(cycle_len=(2, 3)))
        assert specs == [ScenarioSpec(cycle_len=2), ScenarioSpec(cycle_len=3)]

    def test_invalid_churn_points_are_skipped(self):
        specs = FAMILIES["churn"].specs(dict(pool=(2, 4), window=(2, 3)))
        assert [(s.pool, s.window) for s in specs] == [(2, 2), (4, 2), (4, 3)]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(cycle_len=1)
        with pytest.raises(ValueError):
            ScenarioSpec(fan_out=0)
        with pytest.raises(ValueError):
            ScenarioSpec(sites=0)

    def test_task_count_is_cycle_times_fanout(self):
        assert ScenarioSpec(cycle_len=4, fan_out=3).n_tasks == 12


class TestGroundTruth:
    def test_smoke_grid_verifies(self):
        cycle = FAMILIES["cycle"]
        results = verify_corpus(cycle.specs(cycle.smoke))
        assert all(ok for _, ok in results)

    def test_deadlock_appears_only_when_the_knot_closes(self):
        """Prefix safety: the knot closes at the closing group's *first*
        block (its fan-out siblings repeat the same cycle edge); every
        earlier prefix is deadlock-free."""
        fan_out = 2
        trace = scenario_trace(
            ScenarioSpec(cycle_len=3, fan_out=fan_out, sites=1, rounds=2)
        )
        assert replay(trace).deadlocked
        # Drop the whole closing group (one block + one advance each).
        assert not replay(trace.records[: -2 * fan_out]).deadlocked
        # One sibling's block back in: the cycle exists again.
        assert replay(trace.records[: -2 * fan_out + 2]).deadlocked

    def test_meta_is_self_describing(self):
        spec = ScenarioSpec(cycle_len=3, fan_out=2, sites=2, rounds=1,
                            deadlock=False)
        meta = scenario_trace(spec).header.meta
        assert meta["expect_deadlock"] is False
        assert meta["cycle_len"] == 3 and meta["tasks"] == 6
        assert meta["scenario"] == spec.name

    def test_warmup_rounds_add_clean_bulk(self):
        small = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, rounds=0))
        big = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, rounds=10))
        assert len(big) > len(small)
        # The extra events change no verdict.
        assert replay(small).deadlocked and replay(big).deadlocked

    def test_generation_is_deterministic(self):
        spec = ScenarioSpec(cycle_len=3, fan_out=2, sites=2, rounds=2)
        assert scenario_trace(spec).records == scenario_trace(spec).records


class TestTenThousandEventCorpus:
    def test_10k_event_corpus_round_trips_deterministically(self, tmp_path):
        """The acceptance criterion: gen + replay round-trips a 10k-event
        corpus deterministically, under both codecs."""
        specs = [
            ScenarioSpec(cycle_len=4, fan_out=4, sites=1, rounds=160),
            ScenarioSpec(cycle_len=4, fan_out=4, sites=2, rounds=60),
        ]
        traces = generate_corpus(specs)
        total = sum(len(t) for t in traces)
        assert total >= 10_000
        paths = write_corpus(tmp_path, specs, codecs=("jsonl", "binary"))
        by_spec = {}
        for path in paths:
            trace = load_trace(path)
            key = trace.header.meta["scenario"]
            # Both codec files decode to the identical record stream...
            if key in by_spec:
                assert trace.records == by_spec[key]
            else:
                by_spec[key] = trace.records
            # ...and replay deterministically to the expected verdict
            # (cadence > 1 keeps the 10k-event replay fast).
            first = replay(trace, check_every=16)
            second = replay(trace, check_every=16)
            assert first.reports == second.reports
            assert first.deadlocked == trace.header.meta["expect_deadlock"]


class TestWrittenCorpus:
    def test_write_corpus_emits_both_codecs(self, tmp_path):
        specs = [ScenarioSpec(cycle_len=2, fan_out=1, sites=1)]
        paths = write_corpus(tmp_path, specs)
        suffixes = {p.suffix for p in paths}
        assert suffixes == {".jsonl", ".trace"}
        a, b = (load_trace(p) for p in paths)
        assert a.records == b.records

    def test_distributed_corpus_has_publish_deltas_only(self):
        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=2))
        kinds = trace.kind_counts()
        assert kinds.get("publish_delta", 0) > 0
        assert "publish" not in kinds  # the bucket protocol is retired
        assert "block" not in kinds and "unblock" not in kinds
        assert kinds.get("register", 0) > 0  # context survives distribution

    def test_distributed_corpus_streams_open_with_snapshots(self):
        trace = scenario_trace(ScenarioSpec(cycle_len=2, fan_out=1, sites=2))
        first_kind_per_site = {}
        for rec in trace:
            if rec.site is not None and rec.site not in first_kind_per_site:
                first_kind_per_site[rec.site] = rec.payload["kind"]
        assert set(first_kind_per_site.values()) == {"snapshot"}


class TestAioFamily:
    def test_spec_validation_and_names(self):
        from repro.trace.corpus import AioSpec

        assert AioSpec(tasks=1000, shape="cycle").name == "aio-cycle-N1000-dl"
        assert (
            AioSpec(tasks=128, shape="churn", deadlock=False).name
            == "aio-churn-N128-ok"
        )
        with pytest.raises(ValueError):
            AioSpec(tasks=1, shape="cycle")
        with pytest.raises(ValueError):
            AioSpec(tasks=10, shape="ring")

    def test_header_marks_the_backend(self):
        from repro.trace.corpus import AioSpec, aio_trace

        meta = aio_trace(AioSpec(tasks=16, shape="cycle")).header.meta
        assert meta["family"] == "aio"
        assert meta["backend"] == "asyncio"
        assert meta["tasks"] == 16
        assert meta["expect_deadlock"] is True

    @pytest.mark.parametrize("shape", ["cycle", "churn"])
    @pytest.mark.parametrize("deadlock", [True, False])
    def test_ground_truth(self, shape, deadlock):
        from repro.trace.corpus import AioSpec, build_trace

        spec = AioSpec(tasks=32, shape=shape, deadlock=deadlock)
        assert replay(build_trace(spec)).deadlocked == deadlock

    def test_cycle_shape_scales_to_the_acceptance_floor(self):
        """The ISSUE's floor: a ≥1000-task scenario with a verified
        deadlock report — the generated twin of the live aio run."""
        from repro.trace.corpus import AioSpec, build_trace

        trace = build_trace(AioSpec(tasks=1000, shape="cycle"))
        tasks = {r.task for r in trace if r.task is not None}
        assert len(tasks) == 1000
        outcome = replay(trace)
        assert outcome.deadlocked
        assert len(outcome.reports[0].tasks) == 1000

    def test_churn_shape_slides_over_the_whole_pool(self):
        from repro.trace.corpus import AIO_CHURN_WINDOW, AioSpec, build_trace

        trace = build_trace(AioSpec(tasks=64, shape="churn", deadlock=False))
        registers = [r for r in trace if r.kind is RecordKind.REGISTER]
        assert len({r.task for r in registers}) == 64  # every task joined
        assert trace.header.meta["tasks"] == 64

    def test_grid_specs(self):
        aio = FAMILIES["aio"]
        specs = aio.specs({**aio.default, "tasks": (128, 1000)})
        assert len(specs) == 8  # 2 counts x 2 shapes x 2 verdicts
        assert len({s.name for s in specs}) == 8


class TestBoundedFamily:
    def test_spec_validation_and_names(self):
        from repro.trace.corpus import BoundedSpec

        assert (
            BoundedSpec(stages=3, bound=2, rounds=1).name
            == "bounded-G3-B2-R1-S1-dl"
        )
        assert (
            BoundedSpec(stages=2, bound=1, rounds=0, sites=2,
                        deadlock=False).name
            == "bounded-G2-B1-R0-S2-ok"
        )
        with pytest.raises(ValueError):
            BoundedSpec(stages=1)
        with pytest.raises(ValueError):
            BoundedSpec(bound=0)

    @pytest.mark.parametrize("deadlock", [True, False])
    @pytest.mark.parametrize("sites", [1, 2])
    def test_ground_truth(self, deadlock, sites):
        from repro.trace.corpus import BoundedSpec, build_trace

        spec = BoundedSpec(stages=3, bound=2, rounds=2, sites=sites,
                           deadlock=deadlock)
        assert replay(build_trace(spec)).deadlocked == deadlock

    def test_bound_shows_in_the_signal_phases(self):
        """The producer runs exactly ``bound`` items ahead before the
        full-buffer wait — the bounded-phaser invariant, in the trace."""
        from repro.trace.corpus import BoundedSpec, build_trace

        bound, rounds = 3, 1
        trace = build_trace(BoundedSpec(stages=2, bound=bound, rounds=rounds))
        sig_advances = [
            r.phase for r in trace
            if r.kind is RecordKind.ADVANCE and r.phaser == "s0"
        ]
        assert max(sig_advances) == rounds + bound
        blocks = [r for r in trace if r.kind is RecordKind.BLOCK]
        final = blocks[-2]  # st0's full-buffer block
        assert final.status.registered["s0"] == rounds + bound
        assert final.status.registered["a0"] == rounds

    def test_deadlock_appears_only_when_the_ring_fills(self):
        """Prefix safety: the all-full knot closes at the last stage's
        block and never before."""
        from repro.trace.corpus import BoundedSpec, build_trace

        trace = build_trace(BoundedSpec(stages=4, bound=2, rounds=2))
        assert replay(trace).deadlocked
        assert not replay(trace.records[:-1]).deadlocked

    def test_consumers_do_not_impede_their_input_stream(self):
        """A consumer observes its input signal clock without
        registering on it (pure wait) — no spurious back edges."""
        from repro.trace.corpus import BoundedSpec, build_trace

        trace = build_trace(BoundedSpec(stages=2, bound=1, rounds=1))
        for rec in trace:
            if rec.kind is RecordKind.BLOCK:
                for event in rec.status.waits:
                    if str(event.phaser).startswith("s"):
                        assert event.phaser not in rec.status.registered or \
                            rec.status.registered[event.phaser] >= event.phase


class TestKnotFamily:
    def test_spec_validation_and_names(self):
        from repro.trace.corpus import KnotSpec

        assert KnotSpec(pairs=2, rounds=1).name == "knot-P2-R1-S1-dl"
        assert (
            KnotSpec(pairs=1, rounds=0, sites=2, deadlock=False).name
            == "knot-P1-R0-S2-ok"
        )
        with pytest.raises(ValueError):
            KnotSpec(pairs=0)

    @pytest.mark.parametrize("deadlock", [True, False])
    @pytest.mark.parametrize("sites", [1, 2])
    def test_ground_truth(self, deadlock, sites):
        from repro.trace.corpus import KnotSpec, build_trace

        spec = KnotSpec(pairs=2, rounds=2, sites=sites, deadlock=deadlock)
        assert replay(build_trace(spec)).deadlocked == deadlock

    def test_cycle_mixes_lock_and_barrier_edges(self):
        """The deadlock evidence must involve both resource kinds: the
        barrier event the holder awaits and the lock release event the
        waiter awaits."""
        from repro.trace.corpus import KnotSpec, build_trace

        outcome = replay(build_trace(KnotSpec(pairs=1, rounds=1)))
        assert outcome.deadlocked
        phasers = {str(e.phaser) for e in outcome.reports[0].events}
        assert "bar" in phasers
        assert "l0" in phasers

    def test_deadlock_closes_at_the_first_lock_wait(self):
        """Prefix safety: holders parked at the barrier are harmless
        until a non-arrived waiter goes for a held lock."""
        from repro.trace.corpus import KnotSpec, build_trace

        trace = build_trace(KnotSpec(pairs=2, rounds=1))
        blocks = [i for i, r in enumerate(trace.records)
                  if r.kind is RecordKind.BLOCK]
        first_waiter_block = blocks[-2]  # w0 (w1 repeats the knot)
        assert not replay(trace.records[:first_waiter_block]).deadlocked
        assert replay(trace.records[:first_waiter_block + 1]).deadlocked

    def test_lock_epochs_advance_through_the_warmup(self):
        from repro.trace.corpus import KnotSpec, build_trace

        trace = build_trace(KnotSpec(pairs=1, rounds=3))
        lock_advances = [r.phase for r in trace
                         if r.kind is RecordKind.ADVANCE and r.phaser == "l0"]
        assert lock_advances == [1, 2, 3]  # one release per round
