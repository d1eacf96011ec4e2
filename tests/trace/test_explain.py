"""The ``explain`` subcommand: provenance output, pinned byte-for-byte.

``expected_explain.txt`` is the checked-in golden for explaining the
whole regression corpus; serial, ``--parallel`` and ``--from-scratch``
runs must all reproduce it exactly (the same
determinism pin the replay golden carries, extended to provenance).
The single-file mode, ``--report`` selection and the ``--chrome``
export are covered directly.
"""

from __future__ import annotations

import json
import pathlib

from repro.trace.cli import main

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN = CORPUS / "expected_explain.txt"
DL_MEMBER = CORPUS / "recorded-cluster-delta-dl.trace"
OK_MEMBER = CORPUS / "cycle-L3-F2-S1-R2-ok.jsonl"


class TestGoldenExplainOutput:
    def run_cli(self, capsys, *extra) -> str:
        assert main(["explain", str(CORPUS), *extra]) == 0
        return capsys.readouterr().out

    def test_serial_output_matches_golden(self, capsys):
        assert self.run_cli(capsys) == GOLDEN.read_text()

    def test_parallel_output_matches_golden(self, capsys):
        """The CI assertion, in-process: --parallel 2 is byte-identical."""
        assert self.run_cli(capsys, "--parallel", "2") == GOLDEN.read_text()

    def test_from_scratch_output_matches_golden(self, capsys):
        """Both engines attach identical provenance — the corpus pin."""
        assert self.run_cli(capsys, "--from-scratch") == GOLDEN.read_text()

    def test_every_deadlock_member_is_explained(self, capsys):
        out = self.run_cli(capsys)
        # Every -dl member block is followed by a provenance rendering.
        for line in out.splitlines():
            if line.startswith("--- ") and "-dl." in line:
                assert not line.endswith(" 0 report(s)")
        assert "closed @record" in out and "waterfall (records" in out


class TestSingleTrace:
    def test_single_file_renders_provenance(self, capsys):
        assert main(["explain", str(DL_MEMBER)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"trace: {DL_MEMBER}")
        assert "report 1: barrier deadlock detected" in out
        assert "publish_delta @record" in out  # distributed origins
        assert "detection lag" in out

    def test_ok_trace_reports_nothing(self, capsys):
        assert main(["explain", str(OK_MEMBER)]) == 0
        out = capsys.readouterr().out
        assert "no deadlock found" in out

    def test_report_selector(self, capsys):
        assert main(["explain", str(DL_MEMBER), "--report", "1"]) == 0
        out = capsys.readouterr().out
        assert "report 1:" in out

    def test_report_selector_out_of_range(self, capsys):
        assert main(["explain", str(DL_MEMBER), "--report", "9"]) == 1
        assert "no report #9" in capsys.readouterr().err

    def test_chrome_export_validates(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["explain", str(DL_MEMBER), "--chrome", str(out_path)]) == 0
        from repro.obs.tracing import validate_chrome_trace

        doc = json.loads(out_path.read_text())
        validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "deadlock.report" in names and "site.publish_delta" in names

    def test_chrome_rejected_for_corpus_input(self, tmp_path, capsys):
        rc = main(["explain", str(CORPUS), "--chrome", str(tmp_path / "x.json")])
        assert rc == 2
        assert "single trace" in capsys.readouterr().err


class TestCorpusSelectors:
    def test_corpus_report_selector_skips_memberless(self, capsys):
        assert main(["explain", str(CORPUS), "--report", "1"]) == 0
        out = capsys.readouterr().out
        # ok-members print their header but no provenance block.
        assert "--- " in out and "report 1:" in out

    def test_missing_input_fails(self, capsys):
        assert main(["explain", "does-not-exist/"]) == 1
        assert "no such file" in capsys.readouterr().err
