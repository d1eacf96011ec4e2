"""Parallel corpus replay: determinism above all."""

from __future__ import annotations

import os
import pathlib
import shutil
import sys

import pytest

from repro.trace.cli import main
from repro.trace.codec import load_trace
from repro.trace.corpus import (
    FAMILIES,
    ScenarioSpec,
    build_trace,
    verify_corpus,
    write_corpus,
)
from repro.trace.parallel import (
    CorpusEntry,
    discover_traces,
    fan_out,
    replay_corpus,
)
from repro.trace.replay import replay

CHECKED_IN = discover_traces(pathlib.Path(__file__).parent / "corpus")


def cycle_specs(cycle_len, fan_out, sites):
    return FAMILIES["cycle"].specs(dict(
        cycle_len=cycle_len, fan_out=fan_out, sites=sites, rounds=(1,),
        deadlock=(True, False),
    ))


def churn_specs(pool, window, rounds, sites):
    return FAMILIES["churn"].specs(dict(
        pool=(pool,), window=(window,), rounds=(rounds,), sites=sites,
        deadlock=(True, False),
    ))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small mixed corpus (both families, both codecs, both verdicts)."""
    out = tmp_path_factory.mktemp("corpus")
    specs = cycle_specs((2, 3), (1, 2), (1, 2)) + churn_specs(5, 3, 3, (1, 2))
    write_corpus(out, specs)
    return out


class TestDiscovery:
    def test_directory_expansion_is_sorted(self, corpus_dir):
        paths = discover_traces(corpus_dir)
        assert paths == sorted(paths)
        assert all(p.suffix in (".jsonl", ".trace") for p in paths)

    def test_files_kept_and_deduplicated(self, corpus_dir):
        one = discover_traces(corpus_dir)[0]
        assert discover_traces([one, one, corpus_dir])[0] == one
        assert len(discover_traces([one, corpus_dir])) == len(
            discover_traces(corpus_dir)
        )

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            replay_corpus(tmp_path)


class TestParallelEqualsSerial:
    def test_reports_and_stats_identical(self, corpus_dir):
        """The acceptance criterion: fan-out changes wall-clock only."""
        serial = replay_corpus(corpus_dir, processes=1)
        parallel = replay_corpus(corpus_dir, processes=4)
        assert [e.path for e in serial.entries] == [e.path for e in parallel.entries]
        assert [e.result.reports for e in serial.entries] == [
            e.result.reports for e in parallel.entries
        ]
        assert serial.records_processed == parallel.records_processed
        assert serial.checks_run == parallel.checks_run
        assert serial.stats.checks == parallel.stats.checks
        assert serial.stats.edges_total == parallel.stats.edges_total
        assert serial.stats.edges_max == parallel.stats.edges_max
        assert serial.stats.model_counts == parallel.stats.model_counts
        assert not serial.mismatches and not parallel.mismatches

    def test_streamed_parallel_agrees_too(self, corpus_dir):
        """Workers stream each file; the records loaded whole replay to
        the same reports."""
        streamed = replay_corpus(corpus_dir, processes=2)
        assert [e.result.reports for e in streamed.entries] == [
            replay(load_trace(path)).reports
            for path in discover_traces(corpus_dir)
        ]

    def test_merged_stats_equal_sum_of_parts(self, corpus_dir):
        merged = replay_corpus(corpus_dir, processes=2)
        assert merged.stats.checks == sum(
            e.result.stats.checks for e in merged.entries
        )
        assert merged.stats.edges_total == sum(
            e.result.stats.edges_total for e in merged.entries
        )
        assert merged.stats.edges_max == max(
            e.result.stats.edges_max for e in merged.entries
        )

    def test_verdicts_match_ground_truth(self, corpus_dir):
        result = replay_corpus(corpus_dir, processes=2)
        for entry in result.entries:
            assert entry.expected is not None
            assert entry.result.deadlocked == entry.expected, entry.path.name

    def test_one_file_corpus_dir_stable_across_parallel(self, corpus_dir, tmp_path, capsys):
        """Corpus mode is a property of the input: a directory holding a
        single trace prints the same (corpus-format) stdout whatever
        --parallel says."""
        solo = tmp_path / "solo"
        solo.mkdir()
        shutil.copy(discover_traces(corpus_dir)[0], solo)
        assert main(["replay", str(solo)]) == 0
        serial = capsys.readouterr().out
        assert main(["replay", str(solo), "--parallel", "4"]) == 0
        assert capsys.readouterr().out == serial
        assert serial.startswith("corpus: 1 trace(s)")

    def test_cli_stdout_byte_identical(self, corpus_dir, capsys):
        """End to end through the CLI: serial and parallel stdout diff
        empty (the CI regression-corpus job in miniature)."""
        assert main(["replay", str(corpus_dir)]) == 0
        serial_out = capsys.readouterr().out
        assert main(["replay", str(corpus_dir), "--parallel", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "corpus:" in serial_out


def _square_and_pid(n):
    """Module-level, so a worker process can unpickle it."""
    return n * n, os.getpid()


class TestFanOut:
    """The one serial-or-pool ordered map behind every corpus verb."""

    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_results_keep_submission_order(self, processes):
        results = fan_out(_square_and_pid, range(9), processes)
        assert [square for square, _ in results] == [n * n for n in range(9)]
        pids = {pid for _, pid in results}
        assert (pids == {os.getpid()}) == (processes == 1)

    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_one_job_runs_in_process(self, processes):
        assert fan_out(_square_and_pid, [3], processes) == [(9, os.getpid())]

    def test_no_jobs_no_results(self):
        assert fan_out(_square_and_pid, [], 4) == []


def _report_blocks(out: str) -> list:
    """The report lines of a ``replay``/``explain`` stdout, without the
    per-format framing (``trace:``/``replayed``/``corpus:``/``---``
    headers, the corpus summary line, the single-file "nothing found")."""
    framing = ("trace: ", "replayed ", "corpus: ", "--- ", "verdicts: ",
               "explained ", "no deadlock found")
    return [line for line in out.splitlines() if not line.startswith(framing)]


class TestSingleFileIsACorpusOfOne:
    """One engine path: a file and a directory holding only that file
    differ in their printers' framing, never in reports or exit code."""

    @pytest.fixture
    def solo(self, tmp_path):
        def make(path):
            directory = tmp_path / f"solo-{path.name}"
            directory.mkdir()
            shutil.copy(path, directory)
            return directory
        return make

    @pytest.mark.parametrize("path", CHECKED_IN, ids=lambda p: p.name)
    def test_replay_agrees_with_its_one_file_corpus(self, path, solo, capsys):
        single_code = main(["replay", str(path)])
        single = capsys.readouterr().out
        corpus_code = main(["replay", str(solo(path))])
        corpus = capsys.readouterr().out
        assert single.startswith("trace: ") and corpus.startswith("corpus: 1 ")
        assert _report_blocks(single) == _report_blocks(corpus)
        assert single_code == corpus_code == 0

    def test_planted_mismatch_fails_both_ways(self, tmp_path, solo, capsys):
        source = next(p for p in CHECKED_IN if p.name == "cycle-L2-F1-S1-R1-dl.jsonl")
        planted = tmp_path / "planted.jsonl"
        planted.write_text(source.read_text().replace(
            '"expect_deadlock":true', '"expect_deadlock":false'))
        assert main(["replay", str(planted)]) == 1
        single = capsys.readouterr()
        assert main(["replay", str(solo(planted))]) == 1
        corpus = capsys.readouterr()
        assert "VERDICT MISMATCH" in single.err and "VERDICT MISMATCH" in corpus.err
        assert _report_blocks(single.out) == _report_blocks(corpus.out) != []

    @pytest.mark.parametrize("path", CHECKED_IN, ids=lambda p: p.name)
    def test_explain_agrees_with_its_one_file_corpus(self, path, solo, capsys):
        assert main(["explain", str(path)]) == 0
        single = capsys.readouterr().out
        assert main(["explain", str(solo(path))]) == 0
        assert _report_blocks(capsys.readouterr().out) == _report_blocks(single)

    @pytest.mark.parametrize("verb", ["explain", "replay"])
    def test_a_single_file_is_not_loaded_whole(self, monkeypatch, capsys, verb):
        """One file is streamed like a corpus member: no module of the
        package reaches for ``load_trace`` on the way."""
        def no_load(path):
            raise AssertionError(f"{verb} loaded the whole trace")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                module, "load_trace", None
            ) is load_trace:
                monkeypatch.setattr(module, "load_trace", no_load)
        assert main([verb, str(CHECKED_IN[0])]) == 0
        assert capsys.readouterr().out.startswith("trace: ")

    def test_corpus_entry_reads_expect_deadlock(self):
        result = replay(build_trace(ScenarioSpec()))
        assert result.deadlocked
        entry = lambda meta: CorpusEntry(pathlib.Path("x"), meta, result)
        assert entry({}).expected is None and entry({}).verdict_ok
        assert entry({"expect_deadlock": True}).verdict_ok
        assert not entry({"expect_deadlock": False}).verdict_ok
        # The other verb's key is not this verb's verdict.
        assert entry({"expect_prediction": False}).verdict_ok


class TestParallelVerify:
    def test_verify_corpus_parallel_equals_serial(self):
        specs = cycle_specs((2,), (1, 2), (1,)) + churn_specs(4, 2, 2, (1,))
        serial = verify_corpus(specs, processes=1)
        parallel = verify_corpus(specs, processes=2)
        assert serial == parallel
        assert all(ok for _, ok in parallel)
