"""CLI tests: the four ``python -m repro.trace`` subcommands."""

from __future__ import annotations

import time

import pytest

from repro.trace.cli import main
from repro.trace.codec import load_trace


class TestGen:
    def test_smoke_grid_passes(self, capsys):
        assert main(["gen", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "scenarios verified" in out
        assert "FAIL" not in out

    def test_writes_corpus_files(self, tmp_path, capsys):
        rc = main([
            "gen", "--out", str(tmp_path), "--families", "cycle",
            "--cycle-lens", "2,3", "--fan-outs", "1", "--sites", "1",
            "--rounds", "1", "--codec", "both",
        ])
        assert rc == 0
        files = sorted(tmp_path.iterdir())
        # 2 cycle-lens x 1 x 1 x 1 x 2 verdicts x 2 codecs
        assert len(files) == 8
        assert load_trace(files[0]).records

    def test_writes_churn_family(self, tmp_path, capsys):
        rc = main([
            "gen", "--out", str(tmp_path), "--families", "churn",
            "--sites", "1", "--codec", "jsonl",
        ])
        assert rc == 0
        files = sorted(tmp_path.iterdir())
        assert files and all(f.name.startswith("churn-") for f in files)
        assert load_trace(files[0]).records

    def test_rejects_unknown_family(self, capsys):
        assert main(["gen", "--smoke", "--families", "nope"]) == 1

    def test_gen_without_out_or_smoke_fails(self, capsys):
        assert main(["gen"]) == 2

    @pytest.mark.parametrize("families", ["", ",", " , "])
    @pytest.mark.parametrize("mode", ["smoke", "out"])
    def test_no_family_selected_is_an_error(self, families, mode, tmp_path,
                                            capsys):
        """An empty selection used to verify (or write) nothing and
        exit 0 — a CI sanity sweep that checks nothing must not pass."""
        out = tmp_path / "corpus"
        argv = ["--smoke"] if mode == "smoke" else ["--out", str(out)]
        assert main(["gen", *argv, "--families", families]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gen: no families selected "
            "(have: cycle, churn, aio, bounded, knot, nearmiss)\n"
        )
        assert not out.exists()

    def test_selection_order_is_table_order(self, capsys):
        assert main(["gen", "--smoke", "--families", "nearmiss,knot,cycle"]) == 0
        families = [line.split()[1].split("-")[0]
                    for line in capsys.readouterr().out.splitlines()[:-1]]
        assert sorted(set(families), key=families.index) == [
            "cycle", "knot", "nearmiss"
        ]


class TestReplayAndStats:
    @pytest.fixture()
    def corpus_file(self, tmp_path):
        main(["gen", "--out", str(tmp_path), "--cycle-lens", "2",
              "--fan-outs", "1", "--sites", "1", "--rounds", "1",
              "--codec", "jsonl"])
        return next(p for p in tmp_path.iterdir() if p.name.endswith("-dl.jsonl"))

    def test_replay_prints_report_and_throughput(self, corpus_file, capsys):
        assert main(["replay", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "barrier deadlock detected" in out

    def test_replay_flags(self, corpus_file, capsys):
        assert main(["replay", str(corpus_file), "--model", "wfg",
                     "--check-every", "4"]) == 0
        assert "deadlock" in capsys.readouterr().out

    def test_stats_summarises(self, corpus_file, capsys):
        assert main(["stats", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out and "block" in out

    def test_verdict_mismatch_fails(self, tmp_path, capsys):
        """A trace whose meta promises a deadlock must produce one."""
        from repro.trace.codec import save_trace
        from repro.trace.corpus import ScenarioSpec, scenario_trace
        from repro.trace.events import Trace, TraceHeader

        honest = scenario_trace(
            ScenarioSpec(cycle_len=2, fan_out=1, deadlock=False)
        )
        lying = Trace(
            header=TraceHeader(meta={"expect_deadlock": True}),
            records=honest.records,
        )
        path = save_trace(lying, tmp_path / "lying.jsonl")
        assert main(["replay", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().err


class TestCountsMustBePositive:
    """0 or a negative count is a usage error (argparse: exit 2), never
    a silent fallback — ``--check-every 0`` ran at 1, ``--parallel 0``
    ran serial, ``--max-candidates 0`` reported "clean" after looking
    at nothing, ``--report -1`` explained nothing and exited 0."""

    @pytest.mark.parametrize("argv", [
        ["replay", "x.jsonl", "--check-every"],
        ["explain", "x.jsonl", "--check-every"],
        ["replay", "x.jsonl", "--parallel"],
        ["explain", "x.jsonl", "--parallel"],
        ["predict", "x.jsonl", "--parallel"],
        ["gen", "--smoke", "--parallel"],
        ["predict", "x.jsonl", "--max-candidates"],
        ["explain", "x.jsonl", "--report"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    @pytest.mark.parametrize("value", ["0", "-2", "-3", "two"])
    def test_rejected_at_the_parser(self, argv, value, capsys):
        with pytest.raises(SystemExit) as usage:
            main([*argv, value])
        assert usage.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    def test_one_is_still_accepted(self, tmp_path, capsys):
        main(["gen", "--out", str(tmp_path), "--families", "nearmiss",
              "--cycle-lens", "2", "--sites", "1", "--codec", "jsonl"])
        path = next(tmp_path.glob("*-hit-ok.jsonl"))
        assert main(["replay", str(path), "--check-every", "1",
                     "--parallel", "1"]) == 0
        assert main(["predict", str(path), "--max-candidates", "1",
                     "--parallel", "1"]) == 0
        assert "outcome=predicted" in capsys.readouterr().out


class TestRecord:
    def test_record_barrier_off_then_replay(self, tmp_path, capsys):
        out = tmp_path / "bar.jsonl"
        assert main(["record", "--scenario", "barrier", "--mode", "off",
                     "--out", str(out)]) == 0
        assert main(["replay", str(out)]) == 0
        assert "no deadlock found" in capsys.readouterr().out

    def test_record_crossed_detection_then_replay(self, tmp_path, capsys):
        out = tmp_path / "crossed.trace"
        assert main(["record", "--scenario", "crossed", "--out", str(out)]) == 0
        assert main(["replay", str(out)]) == 0
        assert "barrier deadlock detected" in capsys.readouterr().out

    def test_deadlocking_scenario_needs_verification(self, tmp_path, capsys):
        rc = main(["record", "--scenario", "crossed", "--mode", "off",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2

    def test_a_failed_worker_fails_the_recording(
        self, tmp_path, capsys, monkeypatch
    ):
        """Only a deadlock is an expected end of a worker: one that
        raises makes the run exit 1 with one stderr line, at once."""
        from repro.runtime.phaser import Phaser

        def boom(self):
            raise RuntimeError("boom")

        monkeypatch.setattr(Phaser, "arrive_and_await_advance", boom)
        start = time.monotonic()
        rc = main(["record", "--scenario", "crossed",
                   "--out", str(tmp_path / "x.trace")])
        elapsed = time.monotonic() - start
        out, err = capsys.readouterr()
        assert rc == 1 and elapsed < 2, (rc, elapsed)
        assert len(err.splitlines()) == 1, err
        assert err.startswith("record: scenario 'crossed' failed: task t")
        assert "RuntimeError('boom')" in err and not out

    def test_an_unreported_deadlock_fails_the_recording(
        self, tmp_path, capsys, monkeypatch
    ):
        """A deadlocking scenario the checker never reports exits 1 at
        once, instead of waiting out the joins and printing success."""
        from repro.core.checker import DeadlockChecker

        monkeypatch.setattr(DeadlockChecker, "check", lambda self, **kw: None)
        start = time.monotonic()
        rc = main(["record", "--scenario", "crossed",
                   "--out", str(tmp_path / "x.trace")])
        elapsed = time.monotonic() - start
        out, err = capsys.readouterr()
        assert rc == 1 and elapsed < 2, (rc, elapsed)
        assert err == ("record: scenario 'crossed' failed: "
                       "the deadlock was never reported\n")
        assert not out


class TestIncrementalFlag:
    def test_single_file_incremental(self, tmp_path, capsys):
        main(["gen", "--out", str(tmp_path), "--cycle-lens", "2",
              "--fan-outs", "1", "--sites", "1", "--rounds", "1",
              "--codec", "jsonl", "--families", "cycle"])
        capsys.readouterr()
        path = next(p for p in tmp_path.iterdir()
                    if p.name.endswith("-dl.jsonl"))
        assert main(["replay", str(path), "--incremental"]) == 0
        assert "barrier deadlock detected" in capsys.readouterr().out

    def test_corpus_incremental_stdout_matches_scratch(self, tmp_path, capsys):
        main(["gen", "--out", str(tmp_path), "--cycle-lens", "2,3",
              "--fan-outs", "1", "--sites", "1,2", "--rounds", "1",
              "--codec", "jsonl", "--families", "cycle,knot,bounded"])
        capsys.readouterr()
        assert main(["replay", str(tmp_path)]) == 0
        scratch = capsys.readouterr().out
        assert main(["replay", str(tmp_path), "--incremental"]) == 0
        assert capsys.readouterr().out == scratch


class TestBufferedCorpusTiming:
    def test_timing_goes_to_stderr_once_after_merge(self, tmp_path, capsys):
        """One timing line per file plus the total, in work-list order,
        for any --parallel value — emitted as a single buffered write so
        worker stderr cannot interleave mid-line."""
        main(["gen", "--out", str(tmp_path), "--cycle-lens", "2,3",
              "--fan-outs", "1", "--sites", "1", "--rounds", "1",
              "--codec", "jsonl", "--families", "cycle"])
        capsys.readouterr()
        for parallel in ("1", "2"):
            assert main(["replay", str(tmp_path), "--parallel", parallel]) == 0
            out, err = capsys.readouterr()
            timing = [l for l in err.splitlines() if l.startswith("timing: ")]
            files = sorted(p.name for p in tmp_path.iterdir())
            assert [l.split()[1].rstrip(":") for l in timing] == files
            assert err.splitlines()[-1].startswith("replayed ")
            assert "timing:" not in out

    def test_new_families_reach_gen(self, tmp_path, capsys):
        main(["gen", "--out", str(tmp_path), "--families", "bounded,knot",
              "--codec", "jsonl"])
        out = capsys.readouterr().out
        names = {p.name for p in tmp_path.iterdir()}
        assert any(n.startswith("bounded-") for n in names)
        assert any(n.startswith("knot-") for n in names)
        assert "wrote" in out
