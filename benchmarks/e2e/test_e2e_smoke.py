"""Tier-1 smoke of the end-to-end benchmark.

Runs all five workloads, untraced and traced, at ``--smoke`` size and
checks the shape of what comes out: every workload and metric named in
``BENCHMARK.json`` is emitted, finite and well spelt, no operation
failed, and ``compare.py`` finds a run set the same as itself.  The
numbers mean nothing at this size.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

E2E = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((E2E.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_benchmark(out: pathlib.Path, trace: int) -> dict:
    """One smoke run set; returns the contract's last-line object."""
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--seconds", "0.2",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "untraced.json"
    return out, run_benchmark(out, trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "traced.json"
    return out, run_benchmark(out, trace=1)


def check_result(result: dict, metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    expected = {f"{m['name']}@{w}": m["unit"] for m in metrics for w in WORKLOADS}
    assert set(result["metrics"]) == set(expected)
    for key, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), key
        assert metric["unit"] == expected[key], key
        assert all(NAME.match(part) for part in key.split("@")), key


def test_every_end_to_end_metric_on_every_workload(untraced):
    _, result = untraced
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_every_per_layer_metric_on_every_workload(traced):
    out, result = traced
    check_result(result, SPEC["per_layer"])
    docs = json.loads(out.read_text())["runs"][0]
    measured = {name for doc in docs for name, m in doc["metrics"].items()
                if m["measured"]}
    assert measured == {m["name"] for m in SPEC["per_layer"]}
    spans = json.loads((E2E / ".work" / "spans.json").read_text())
    assert {span["workload"] for span in spans} == set(WORKLOADS)
    assert all(span["end_ns"] >= span["start_ns"] for span in spans)


def test_each_workload_owns_its_metrics(untraced):
    out, _ = untraced
    docs = json.loads(out.read_text())["runs"][0]
    owned = {doc["workload"]: {n for n, m in doc["metrics"].items()
                               if not m["stand_in"]} for doc in docs}
    common = {"setup_s", "peak_rss_mib"}
    assert owned == {
        "replay_ring": common | {"events_per_s"},
        "replay_churn": common | {"events_per_s", "scratch_events_per_s"},
        "service_storm": common | {"publishes_per_s", "publish_p99_ms",
                                   "check_p50_ms"},
        "service_knot": common | {"detect_lag_p50_ms", "detect_lag_p95_ms"},
        "live_barrier": common | {"syncs_per_s", "overhead_detection",
                                  "overhead_avoidance"},
    }
    assert all(doc["attempted"] > 0 and doc["failed"] == 0 for doc in docs)


def test_compare_against_itself_says_same(untraced):
    out, _ = untraced
    done = subprocess.run(
        [sys.executable, str(E2E / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = re.findall(r"@\S+ .* (better|worse|same|unresolved)  \(", done.stdout)
    assert verdicts == ["same"] * 21, done.stdout
