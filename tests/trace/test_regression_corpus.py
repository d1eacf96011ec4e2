"""The checked-in regression corpus: pin the checker's exact reports.

``tests/trace/corpus/`` holds a small set of trace files — generated
scenarios (both families, both codecs) plus *recorded* live runs — and
``expected_replay.txt``, the byte-exact CLI corpus-replay output.  The
tests replay the files (always streamed) serially and in parallel, and
hold them against the records loaded whole, and compare
against the golden bytes: any refactor that changes a report (cycle
rotation, task ordering, check cadence, codec framing) fails loudly
here instead of drifting silently.

Regenerating the golden file after an *intentional* change::

    PYTHONPATH=src python -m repro.trace replay tests/trace/corpus \
        > tests/trace/corpus/expected_replay.txt 2>/dev/null
"""

from __future__ import annotations

import pathlib

import pytest

from repro.trace.cli import main
from repro.trace.codec import dumps, load_trace
from repro.trace.corpus import (
    AioSpec,
    BoundedSpec,
    ChurnSpec,
    KnotSpec,
    NearMissSpec,
    ScenarioSpec,
    build_trace,
)
from repro.trace.parallel import discover_traces
from repro.trace.replay import replay

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN = CORPUS / "expected_replay.txt"

#: The generated members of the corpus (the recorded-* files are
#: one-off captures and are pinned by bytes alone).
GENERATED_SPECS = (
    ScenarioSpec(cycle_len=2, fan_out=1, sites=1, rounds=1, deadlock=True),
    ScenarioSpec(cycle_len=3, fan_out=2, sites=1, rounds=2, deadlock=False),
    ScenarioSpec(cycle_len=2, fan_out=2, sites=2, rounds=1, deadlock=True),
    ChurnSpec(pool=5, window=3, rounds=3, sites=1, deadlock=True),
    ChurnSpec(pool=4, window=2, rounds=2, sites=2, deadlock=False),
    AioSpec(tasks=8, shape="cycle", deadlock=True),
    AioSpec(tasks=8, shape="churn", deadlock=False),
    BoundedSpec(stages=3, bound=2, rounds=1, sites=1, deadlock=True),
    BoundedSpec(stages=2, bound=1, rounds=1, sites=2, deadlock=False),
    KnotSpec(pairs=2, rounds=1, sites=1, deadlock=True),
    KnotSpec(pairs=1, rounds=1, sites=2, deadlock=False),
    NearMissSpec(chain_len=3, rounds=1, sites=2, realisable=True),
    NearMissSpec(chain_len=3, rounds=1, sites=2, realisable=False),
)

CODEC_EXT = {"jsonl": ".jsonl", "binary": ".trace"}


def corpus_files():
    return discover_traces(CORPUS)


def expected_verdict(path: pathlib.Path) -> bool:
    if path.stem.endswith("-dl") or "crossed" in path.stem:
        return True
    assert path.stem.endswith("-ok") or "barrier" in path.stem
    return False


class TestCorpusContents:
    def test_corpus_is_checked_in_and_nonempty(self):
        files = corpus_files()
        assert len(files) == 32
        assert any(p.name.startswith("recorded-") for p in files)
        assert any(p.name.startswith("churn-") for p in files)
        assert any(p.name.startswith("aio-") for p in files)
        assert any(p.name.startswith("bounded-") for p in files)
        assert any(p.name.startswith("knot-") for p in files)
        assert any(p.name.startswith("nearmiss-") for p in files)

    def test_recorded_members_cover_every_source(self):
        """The ROADMAP's pinned-surface item: live runtime, PL
        interpreter and distributed cluster recordings all present —
        two cluster captures, both ``publish_delta`` records (the older
        one converted from whole-bucket publications to per-site
        snapshots)."""
        names = {p.name for p in corpus_files()}
        assert "recorded-crossed-detection.trace" in names
        assert "recorded-pl-averaging-dl.jsonl" in names
        assert "recorded-pl-spmd-ok.jsonl" in names
        assert "recorded-cluster-dl.trace" in names
        assert "recorded-cluster-delta-dl.trace" in names

    def test_cluster_recording_carries_multi_site_publishes(self):
        trace = load_trace(CORPUS / "recorded-cluster-dl.trace")
        sites = {r.site for r in trace if r.site is not None}
        assert len(sites) >= 2, "expected publishes from several places"

    def test_delta_cluster_recording_carries_publish_deltas(self):
        """The new live capture: the store recorded the delta streams
        of several places, opening with snapshot checkpoints."""
        from repro.trace.events import RecordKind

        trace = load_trace(CORPUS / "recorded-cluster-delta-dl.trace")
        deltas = [r for r in trace if r.kind is RecordKind.PUBLISH_DELTA]
        assert deltas, "expected publish_delta records"
        sites = {r.site for r in deltas}
        assert len(sites) >= 2, "expected streams from several places"
        first = {}
        for rec in deltas:
            first.setdefault(rec.site, rec.payload["kind"])
        assert set(first.values()) == {"snapshot"}

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_replays_to_expected_verdict(self, path):
        outcome = replay(path)
        assert outcome.deadlocked == expected_verdict(path), path.name

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_streamed_replay_agrees(self, path):
        assert replay(path).reports == replay(load_trace(path)).reports

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_incremental_replay_agrees(self, path):
        """The tentpole acceptance pin: the delta-maintained engine
        reproduces the from-scratch reports on every corpus member."""
        assert replay(path, incremental=True).reports == replay(path).reports

    @pytest.mark.parametrize("spec", GENERATED_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("codec", sorted(CODEC_EXT))
    def test_generator_output_is_byte_pinned(self, spec, codec):
        """Regenerating a corpus member reproduces the checked-in bytes:
        generator schedules and codec framing are both frozen."""
        checked_in = CORPUS / f"{spec.name}{CODEC_EXT[codec]}"
        assert dumps(build_trace(spec), codec) == checked_in.read_bytes()


class TestGoldenReplayOutput:
    def run_cli(self, capsys, *extra) -> str:
        assert main(["replay", str(CORPUS), *extra]) == 0
        return capsys.readouterr().out

    def test_serial_output_matches_golden(self, capsys):
        assert self.run_cli(capsys) == GOLDEN.read_text()

    def test_parallel_output_matches_golden(self, capsys):
        """The CI assertion, in-process: --parallel 2 is byte-identical."""
        assert self.run_cli(capsys, "--parallel", "2") == GOLDEN.read_text()

    def test_incremental_output_matches_golden(self, capsys):
        """The CI assertion, in-process: --incremental is byte-identical
        to the from-scratch engine."""
        assert self.run_cli(capsys, "--incremental") == GOLDEN.read_text()

    def test_incremental_parallel_output_matches_golden(self, capsys):
        assert (
            self.run_cli(capsys, "--incremental", "--parallel", "2")
            == GOLDEN.read_text()
        )

    def test_incremental_matches_scratch_in_seven_op_windows(self, capsys):
        """The CI assertion, in-process: at ``--check-every 7`` the
        incremental engine's batch windows hold several ops (so a
        component can go over its window budget mid-batch) and the
        output is still the from-scratch engine's at that cadence."""
        scratch = self.run_cli(capsys, "--check-every", "7")
        assert self.run_cli(
            capsys, "--check-every", "7", "--incremental"
        ) == scratch
