"""The predict CLI surface: golden byte-identity, witness emission,
mismatch signalling, metrics determinism.

Regenerating the golden after an *intentional* change::

    PYTHONPATH=src python -m repro.trace predict tests/trace/corpus \
        > tests/trace/corpus/expected_predict.txt 2>/dev/null
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.predict.engine import CLEAN, PREDICTED, PredictResult
from repro.predict.parallel import PredictEntry
from repro.trace.cli import main
from repro.trace.codec import save_trace
from repro.trace.corpus import NearMissSpec, build_trace
from repro.trace.parallel import discover_traces

CORPUS = pathlib.Path(__file__).parent.parent / "trace" / "corpus"
GOLDEN = CORPUS / "expected_predict.txt"
MEMBERS = discover_traces(CORPUS)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestGoldenPredictOutput:
    def test_serial_output_matches_golden(self, capsys):
        code, out = run_cli(capsys, "predict", str(CORPUS))
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_parallel_output_matches_golden(self, capsys):
        """The CI assertion, in-process: --parallel 2 is byte-identical
        to the serial reference."""
        code, out = run_cli(capsys, "predict", str(CORPUS),
                            "--parallel", "2")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_golden_pins_confirmed_predictions(self):
        """The golden itself must witness the feature: confirmed
        predictions and zero mismatches."""
        text = GOLDEN.read_text()
        assert "outcome=predicted" in text
        assert "prediction 1:" in text
        assert "0 mismatch(es)" in text


class TestSingleFileMode:
    def test_hit_pin_prints_prediction(self, capsys):
        path = next(CORPUS.glob("*-hit-ok.jsonl"))
        code, out = run_cli(capsys, "predict", str(path))
        assert code == 0
        assert out.startswith(f"trace: {path}\n")
        assert "outcome=predicted" in out
        assert "prediction 1:" in out
        assert "mined from:" in out

    def test_control_pin_is_clean(self, capsys):
        path = next(CORPUS.glob("*-ctl-ok.jsonl"))
        code, out = run_cli(capsys, "predict", str(path))
        assert code == 0
        assert "outcome=clean" in out
        assert "prediction" not in out.replace("predictions:", "")


    @pytest.mark.parametrize("path", MEMBERS, ids=lambda p: p.name)
    def test_agrees_with_its_one_file_corpus(self, path, capsys, tmp_path):
        """A single file is a corpus of one: same engine call, so the
        per-trace block is the corpus block minus its ``--- `` prefix."""
        shutil.copy(path, tmp_path)
        single_code, single = run_cli(capsys, "predict", str(path))
        corpus_code, corpus = run_cli(capsys, "predict", str(tmp_path))
        assert single_code == corpus_code == 0
        head, *block = single.splitlines()
        assert head == f"trace: {path}"
        framed = corpus.splitlines()
        assert framed[0] == "corpus: 1 trace(s)"
        assert framed[-1].startswith("predictions: ")
        assert ["--- " + block[0], *block[1:]] == framed[1:-1]


class TestWitnessEmission:
    def test_emitted_witness_replays_to_deadlock(self, capsys, tmp_path):
        path = next(CORPUS.glob("*-hit-ok.jsonl"))
        out_dir = tmp_path / "witnesses"
        code, _ = run_cli(capsys, "predict", str(path),
                          "--emit-witness", str(out_dir))
        assert code == 0
        written = sorted(out_dir.glob("*-predicted-*.jsonl"))
        assert written, "expected at least one witness file"
        for wpath in written:
            code, out = run_cli(capsys, "replay", str(wpath))
            assert code == 0
            assert "deadlock" in out.lower()

    def test_corpus_mode_emits_witnesses_too(self, capsys, tmp_path):
        out_dir = tmp_path / "witnesses"
        code, _ = run_cli(capsys, "predict", str(CORPUS),
                          "--emit-witness", str(out_dir))
        assert code == 0
        # Both hit pins (jsonl + binary codecs of the same schedule)
        # share a stem, so their identical witnesses land on one path.
        assert len(list(out_dir.glob("*-hit-ok-predicted-*.jsonl"))) >= 1


class TestMismatchSignalling:
    def test_unrealised_expectation_exits_nonzero(self, capsys, tmp_path):
        # A control schedule doctored to *claim* a planted near-miss:
        # corpus mode must flag the contradiction and exit 1.
        trace = build_trace(NearMissSpec(chain_len=2, realisable=False))
        trace.header.meta["expect_prediction"] = True
        save_trace(trace, tmp_path / "doctored-ok.jsonl", codec="jsonl")
        code, out = run_cli(capsys, "predict", str(tmp_path))
        assert code == 1
        assert "1 mismatch(es)" in out
        # ...and so must the same file given alone (one exit-code path).
        assert main(["predict", str(tmp_path / "doctored-ok.jsonl")]) == 1
        assert "PREDICTION MISMATCH" in capsys.readouterr().err

    def test_predict_entry_reads_expect_prediction(self):
        """The verdict rule is ``CorpusEntry``'s; predict supplies only
        its meta key and what counts as the observed verdict."""
        def entry(meta, outcome):
            return PredictEntry(pathlib.Path("x"), meta,
                                PredictResult(outcome=outcome, records=0))

        assert entry({}, CLEAN).expected is None
        assert entry({}, CLEAN).verdict_ok
        assert entry({"expect_prediction": True}, PREDICTED).verdict_ok
        assert entry({"expect_prediction": False}, CLEAN).verdict_ok
        assert not entry({"expect_prediction": True}, CLEAN).verdict_ok
        assert not entry({"expect_prediction": False}, PREDICTED).verdict_ok
        # replay's key is not predict's verdict.
        assert entry({"expect_deadlock": True}, CLEAN).verdict_ok


class TestMetricsDeterminism:
    def test_metrics_json_identical_serial_vs_parallel(self, capsys,
                                                       tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert run_cli(capsys, "predict", str(CORPUS),
                       "--metrics-json", str(serial))[0] == 0
        assert run_cli(capsys, "predict", str(CORPUS), "--parallel", "3",
                       "--metrics-json", str(parallel))[0] == 0
        assert serial.read_bytes() == parallel.read_bytes()
        snapshot = json.loads(serial.read_text())
        names = {m["name"] for m in snapshot["metrics"]}
        assert "repro_predict_traces_total" in names
        assert "repro_predict_candidates_total" in names
        assert "repro_predict_witness_records" in names
