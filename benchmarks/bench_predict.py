"""Predictive-detection throughput: the four-stage pipeline end to end.

A near-miss corpus is generated once (the ``NearMissSpec`` grid — hit
and control schedules, local and distributed routing) and each round
runs the full predictor over it: HB model, interval extraction,
candidate enumeration, witness construction and the double confirmation
replay.  The ground truth is asserted every round — every hit predicts,
every control stays clean — so the benchmark doubles as a soundness
smoke test at scale.

Reported per run (``extra_info``): records/sec through the predictor,
candidates scanned/confirmed, corpus fan-out throughput per process
count.  CI runs a reduced grid via ``REPRO_PREDICT_CHAINS`` /
``REPRO_PREDICT_ROUNDS`` and uploads ``BENCH_predict.json`` as an
artifact (no copy lives in git; one full-size run is recorded in
EXPERIMENTS.md, "Predictive detection").

Why this file stays beside ``benchmarks/e2e/``: it is the only timing
of :mod:`repro.predict` — no end-to-end workload runs the predictor.
"""

from __future__ import annotations

import os

import pytest

from repro.predict.engine import predict_trace
from repro.predict.parallel import predict_corpus
from repro.trace.codec import load_trace
from repro.trace.corpus import FAMILIES, build_trace, write_corpus

#: Acceptance size; CI overrides with a reduced grid.
CHAIN_LENS = tuple(
    int(x) for x in os.environ.get("REPRO_PREDICT_CHAINS", "2,4,8").split(",")
)
ROUNDS = int(os.environ.get("REPRO_PREDICT_ROUNDS", "12"))

SPECS = FAMILIES["nearmiss"].specs(dict(
    chain_len=CHAIN_LENS,
    rounds=(ROUNDS,),
    sites=(1, 2),
    realisable=(True, False),
))
HITS = sum(1 for s in SPECS if s.realisable)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("predict-corpus")
    paths = write_corpus(tmp, SPECS, codecs=("jsonl",))
    records = sum(len(load_trace(p)) for p in paths)
    return tmp, len(paths), records


def test_predict_single_trace(bench, benchmark):
    """The deepest single scan: longest chain, distributed routing."""
    spec = max(
        (s for s in SPECS if s.realisable and s.sites > 1),
        key=lambda s: s.chain_len,
    )
    trace = build_trace(spec)

    def run():
        return predict_trace(trace)

    result = bench(run)
    assert result.predicted and len(result.confirmed) == 1
    assert not result.truncated
    elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["scenario"] = spec.name
    benchmark.extra_info["records"] = result.records
    benchmark.extra_info["candidates_scanned"] = result.candidates_scanned
    benchmark.extra_info["witness_records"] = len(
        result.confirmed[0].witness.records
    )
    benchmark.extra_info["predict_records_per_sec"] = round(
        result.records / elapsed
    )


@pytest.mark.parametrize("processes", [1, 2])
def test_predict_corpus_fanout(bench, benchmark, corpus_dir, processes):
    """Corpus prediction at 1/2 processes; every verdict re-checked
    against the planted ground truth each round."""
    path, n_files, n_records = corpus_dir

    def run():
        return predict_corpus(path, processes=processes)

    result = bench(run)
    assert len(result.entries) == n_files
    assert not result.mismatches
    assert result.confirmed == HITS
    elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["processes"] = processes
    benchmark.extra_info["traces"] = n_files
    benchmark.extra_info["records"] = n_records
    benchmark.extra_info["chain_lens"] = list(CHAIN_LENS)
    benchmark.extra_info["confirmed"] = result.confirmed
    benchmark.extra_info["candidates_scanned"] = result.candidates_scanned
    benchmark.extra_info["corpus_records_per_sec"] = round(
        n_records / elapsed
    )
