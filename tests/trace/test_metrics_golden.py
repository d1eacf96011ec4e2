"""The pinned corpus metrics snapshot and its determinism guarantees.

``tests/trace/corpus/expected_metrics.txt`` is the canonical-JSON
metrics snapshot of a ``--from-scratch`` corpus replay
(``--metrics-json``).  The snapshot
is the *non-volatile* slice of the merged registry, which makes it a
pure function of the trace bytes: the tests assert byte-identity
serially, under ``--parallel N`` (merge is order-insensitive and every
worker process sees a different string-hash seed) and across repeated
runs.  Report output must be unaffected by metrics emission.

``expected_metrics_incremental.txt`` is the same snapshot of a
default replay, whose maintained engine adds its own series.

Regenerating after an intentional change (drop ``--from-scratch`` and
take the other file name for the second golden)::

    PYTHONPATH=src python -m repro.trace replay tests/trace/corpus \
        --from-scratch \
        --metrics-json tests/trace/corpus/expected_metrics.txt \
        > /dev/null 2>&1
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.trace.cli import main

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN_REPLAY = CORPUS / "expected_replay.txt"
GOLDEN_METRICS = CORPUS / "expected_metrics.txt"
GOLDEN_INCREMENTAL = CORPUS / "expected_metrics_incremental.txt"
SRC = pathlib.Path(__file__).parents[2] / "src"


def run_metrics_json(tmp_path, *extra) -> bytes:
    out = tmp_path / "metrics.json"
    assert main(["replay", str(CORPUS), "--metrics-json", str(out), *extra]) == 0
    return out.read_bytes()


class TestMetricsGolden:
    def test_from_scratch_serial_matches_golden(self, tmp_path, capsys):
        assert (
            run_metrics_json(tmp_path, "--from-scratch")
            == GOLDEN_METRICS.read_bytes()
        )

    def test_from_scratch_parallel_matches_golden(self, tmp_path, capsys):
        """The acceptance pin: worker processes have different hash
        seeds, yet the merged snapshot is byte-identical to serial."""
        assert (
            run_metrics_json(tmp_path, "--from-scratch", "--parallel", "2")
            == GOLDEN_METRICS.read_bytes()
        )

    def test_default_serial_and_parallel_agree(self, tmp_path, capsys):
        """The maintained engine adds its own series, so it has its own
        golden, under the same serial/parallel byte-identity."""
        golden = GOLDEN_INCREMENTAL.read_bytes()
        assert run_metrics_json(tmp_path) == golden
        assert run_metrics_json(tmp_path, "--parallel", "2") == golden

    @pytest.mark.parametrize("seed", ["0", "12345"])
    def test_default_golden_under_hash_seed(self, tmp_path, seed):
        out = tmp_path / "metrics.json"
        subprocess.run(
            [sys.executable, "-m", "repro.trace", "replay", str(CORPUS),
             "--metrics-json", str(out)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)},
            capture_output=True, check=True,
        )
        assert out.read_bytes() == GOLDEN_INCREMENTAL.read_bytes()

    def test_golden_is_canonical_json(self):
        text = GOLDEN_METRICS.read_text()
        snap = json.loads(text)
        assert text == json.dumps(snap, sort_keys=True, separators=(",", ":")) + "\n"
        names = [m["name"] for m in snap["metrics"]]
        assert names == sorted(names)
        assert "repro_replay_records_total" in names
        assert "repro_checks_total" in names
        # The volatile slice stays out of the deterministic snapshot.
        assert not any(m["volatile"] for m in snap["metrics"])
        assert "repro_check_duration_seconds" not in names


class TestMetricsDoNotPerturbReports:
    def test_replay_stdout_unchanged_with_metrics_json(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["replay", str(CORPUS), "--metrics-json", str(out)]) == 0
        assert capsys.readouterr().out == GOLDEN_REPLAY.read_text()

    def test_metrics_stdout_appends_after_reports(self, capsys):
        assert main(["replay", str(CORPUS), "--metrics-stdout"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(GOLDEN_REPLAY.read_text())
        trailing = text[len(GOLDEN_REPLAY.read_text()):]
        assert json.loads(trailing)["v"] == 1
