"""Incremental vs from-scratch checking: the O(N) vs O(N²) replay wall.

The ISSUE's acceptance workload is a ``check_every=1`` detection replay
of an N-task aio cycle trace (the thousand-task ring the asyncio
backend records).  The from-scratch engine rebuilds the analysis graph
at every cadence point — quadratic overall; the incremental engine
feeds record-level deltas into the maintained graph and only pays for
what changed — linear, with the single canonical-extraction fallback at
the knot-closing record.

``extra_info`` records per-engine events/sec and, on the incremental
points, ``speedup_vs_scratch`` — the acceptance figure (≥5× at
N=1000).  CI runs the suite at a reduced N (``REPRO_INCR_BENCH_TASKS``)
and uploads ``BENCH_incremental.json``; run locally without the
variable for the full-size numbers.

A second pair of points replays the churn-shaped ok-trace (constant
small blocked set, heavy block/unblock turnover) — the delta engine's
worst case relative to scratch, reported for honesty: the win there is
bounded because the from-scratch graphs are already tiny.
"""

from __future__ import annotations

import contextlib
import os
import time

import pytest

from repro.core._native import NATIVE_ENV, native_available
from repro.core.incremental import IncrementalChecker
from repro.obs import tracing
from repro.trace.corpus import AioSpec, build_trace
from repro.trace.replay import ReplayEngine, replay

#: Acceptance size; CI overrides with a reduced count.
N_TASKS = int(os.environ.get("REPRO_INCR_BENCH_TASKS", "1000"))

#: The acceptance floor for the cycle-shape speedup.
SPEEDUP_FLOOR = 5.0


@contextlib.contextmanager
def seed_engine():
    """Reconstruct the engine configuration the pre-batching checked-in
    numbers measured, so the hot-path speedup has a baseline from the
    *same run on the same machine* (checked-in absolute numbers do not
    transfer across VMs — see EXPERIMENTS.md).  Four reversions:
    per-edge delta application, pure-Python SCC maintenance, the eager
    status-view rebuild at every cadence point that carried reports,
    and the per-vertex provenance-attribution scan (the predecessor of
    ``_attribution_index``)."""
    real_batch = IncrementalChecker.apply_batch
    real_collect = ReplayEngine._collect
    real_attribute = tracing._attribute
    real_index = tracing._attribution_index
    real_native = os.environ.get(NATIVE_ENV)

    def per_edge(self, ops):
        for op, task, status in ops:
            if op == "set":
                self.set_blocked(task, status)
            elif op == "clear":
                self.clear(task)
            else:
                self.restore(task, status)

    def eager_collect(self, reports, seen, result, origins, statuses_fn,
                      lags):
        if reports:
            statuses = statuses_fn()
            statuses_fn = lambda: statuses  # noqa: E731
        return real_collect(self, reports, seen, result, origins,
                            statuses_fn, lags)

    def scan(vertex, report, statuses, tracker):
        # The seed implementation: a sorted scan over the report's
        # tasks for every cycle vertex — O(cycle × statuses) per
        # report, the quadratic term the attribution index removed.
        fallback = tracing.RecordOrigin(tracker.last_ordinal, "block")
        if vertex in tracker.origins:
            return tracker.origins[vertex], str(vertex)
        if vertex in statuses or not report.tasks:
            return fallback, str(vertex)
        candidates = sorted(
            (str(t), t) for t in report.tasks
            if t in statuses and vertex in statuses[t].waits
        )
        if not candidates:
            candidates = sorted((str(t), t) for t in report.tasks)
        task = candidates[0][1]
        return tracker.origins.get(task, fallback), str(task)

    def scanning_attribute(vertex, report, statuses, tracker, index,
                           fallback):
        # The seed attributed every vertex twice — as one edge's target
        # and as the next edge's source; the engine now asks once.
        scan(vertex, report, statuses, tracker)
        return scan(vertex, report, statuses, tracker)

    IncrementalChecker.apply_batch = per_edge
    ReplayEngine._collect = eager_collect
    tracing._attribute = scanning_attribute
    tracing._attribution_index = lambda report, statuses: None
    os.environ[NATIVE_ENV] = "0"
    try:
        yield
    finally:
        IncrementalChecker.apply_batch = real_batch
        ReplayEngine._collect = real_collect
        tracing._attribute = real_attribute
        tracing._attribution_index = real_index
        if real_native is None:
            os.environ.pop(NATIVE_ENV, None)
        else:
            os.environ[NATIVE_ENV] = real_native


@pytest.fixture(scope="module")
def cycle_trace():
    return build_trace(AioSpec(tasks=N_TASKS, shape="cycle", deadlock=True))


@pytest.fixture(scope="module")
def churn_trace():
    return build_trace(AioSpec(tasks=N_TASKS, shape="churn", deadlock=False))


def _info(benchmark, trace, engine):
    elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["tasks"] = N_TASKS
    benchmark.extra_info["records"] = len(trace)
    benchmark.extra_info["events_per_sec"] = round(len(trace) / elapsed)
    return elapsed


def test_cycle_scratch(bench, benchmark, cycle_trace):
    result = bench(lambda: replay(cycle_trace, check_every=1))
    assert result.deadlocked
    _info(benchmark, cycle_trace, "scratch")


def test_cycle_incremental(bench, benchmark, cycle_trace):
    """The acceptance point: ≥5× over from-scratch at ``check_every=1``."""
    result = bench(lambda: replay(cycle_trace, check_every=1, incremental=True))
    assert result.deadlocked
    elapsed = _info(benchmark, cycle_trace, "incremental")
    # One timed from-scratch reference inside the same process/state so
    # the speedup lands in this benchmark's extra_info.
    import time

    t0 = time.perf_counter()
    reference = replay(cycle_trace, check_every=1)
    scratch_s = time.perf_counter() - t0
    assert reference.reports == result.reports  # byte-identical evidence
    speedup = scratch_s / elapsed
    benchmark.extra_info["scratch_s"] = round(scratch_s, 4)
    benchmark.extra_info["speedup_vs_scratch"] = round(speedup, 1)
    benchmark.extra_info["speedup_floor"] = SPEEDUP_FLOOR
    if N_TASKS >= 1000:
        assert speedup >= SPEEDUP_FLOOR


def test_cycle_incremental_compiled(bench, benchmark, cycle_trace,
                                    monkeypatch):
    """The hot-path acceptance point: batched delta application plus
    the compiled SCC kernel, floored at ≥5× over the seed engine
    (per-edge, pure Python, eager enrichment) timed in the same run.
    Reports must be identical across all three configurations."""
    if not native_available():
        pytest.skip("compiled kernel not built")
    monkeypatch.setenv(NATIVE_ENV, "require")
    result = bench(
        lambda: replay(cycle_trace, check_every=1, incremental=True)
    )
    assert result.deadlocked
    elapsed = _info(benchmark, cycle_trace, "incremental+batched+compiled")

    t0 = time.perf_counter()
    with seed_engine():
        baseline = replay(cycle_trace, check_every=1, incremental=True)
    baseline_s = time.perf_counter() - t0
    assert baseline.reports == result.reports  # byte-identical evidence

    speedup = baseline_s / elapsed
    benchmark.extra_info["seed_engine_s"] = round(baseline_s, 4)
    benchmark.extra_info["seed_engine_events_per_sec"] = round(
        len(cycle_trace) / baseline_s
    )
    benchmark.extra_info["speedup_vs_seed_engine"] = round(speedup, 1)
    benchmark.extra_info["speedup_floor"] = SPEEDUP_FLOOR
    if N_TASKS >= 1000:
        assert speedup >= SPEEDUP_FLOOR


def test_churn_scratch(bench, benchmark, churn_trace):
    result = bench(lambda: replay(churn_trace, check_every=1))
    assert not result.deadlocked
    _info(benchmark, churn_trace, "scratch")


def test_churn_incremental(bench, benchmark, churn_trace):
    result = bench(lambda: replay(churn_trace, check_every=1, incremental=True))
    assert not result.deadlocked
    _info(benchmark, churn_trace, "incremental")


def test_sharded_cycle_incremental(bench, benchmark, cycle_trace):
    """Sharded detection through the maintained graph: the oracle keeps
    shard checks O(1) while acyclic too."""
    result = bench(
        lambda: replay(
            cycle_trace, check_every=1, shard_components=True, incremental=True
        )
    )
    assert result.deadlocked
    _info(benchmark, cycle_trace, "incremental+sharded")
