"""Tracing overhead: causal spans and provenance must be nearly free.

Two kinds of points:

* **Replay overhead** — the same trace replayed through an engine
  handed a live :class:`~repro.obs.tracing.Tracer` versus one handed
  :data:`~repro.obs.tracing.NULL_TRACER`.  Provenance tracking itself
  (the :class:`~repro.obs.tracing.OriginTracker` fold and report
  enrichment) runs in both — it is part of the replay contract — so
  the difference is exactly the span-buffer cost.  The acceptance
  assert pins it at ≤10% (with a small absolute epsilon so
  micro-second noise on reduced CI sizes cannot flake the job).
* **Span micro** — ``begin``/``end`` pairs driven directly against the
  live and null tracers: the marginal wall-clock cost per span
  (informational, reported in ``extra_info``).

CI runs the suite at a reduced size (``REPRO_TRACING_BENCH_TASKS``)
and uploads ``BENCH_tracing.json``; run locally without the variable
for full-size numbers.

Why this file stays beside ``benchmarks/e2e/``: it holds the only
≤10% ceiling on the tracing layer.  The e2e benchmark's per-layer
``trace_overhead`` is a reported ratio, not an asserted one; folding
this ceiling into it needs a benchmark change.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.obs.tracing import NULL_TRACER, Tracer
from repro.trace.corpus import AioSpec, build_trace
from repro.trace.replay import ReplayEngine

#: Acceptance size; CI overrides with a reduced count.
N_TASKS = int(os.environ.get("REPRO_TRACING_BENCH_TASKS", "1000"))

#: The acceptance ceiling on tracer-enabled replay overhead.
OVERHEAD_CEILING = 0.10
#: Absolute slack: differences below this are timer noise, not cost.
EPSILON_S = 0.002


@pytest.fixture(scope="module")
def cycle_trace():
    return build_trace(AioSpec(tasks=N_TASKS, shape="cycle", deadlock=True))


def _min_time(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_overhead(benchmark, enabled_s: float, null_s: float) -> None:
    overhead = (enabled_s - null_s) / null_s if null_s > 0 else 0.0
    benchmark.extra_info["enabled_s"] = round(enabled_s, 5)
    benchmark.extra_info["null_s"] = round(null_s, 5)
    benchmark.extra_info["overhead_frac"] = round(overhead, 4)
    benchmark.extra_info["ceiling"] = OVERHEAD_CEILING
    assert (
        overhead <= OVERHEAD_CEILING or (enabled_s - null_s) <= EPSILON_S
    ), f"tracer-enabled replay {overhead:.1%} slower than null-tracer"


def _engines(incremental: bool):
    enabled = ReplayEngine(
        check_every=1, incremental=incremental, tracer=Tracer()
    )
    null = ReplayEngine(
        check_every=1, incremental=incremental, tracer=NULL_TRACER
    )
    return enabled, null


def test_replay_overhead_tracing_incremental(bench, benchmark, cycle_trace):
    """The ≤10% acceptance point on the linear engine (hot path: the
    per-record fold, where span recording would show)."""
    enabled, null = _engines(incremental=True)
    result = bench(lambda: enabled.run(cycle_trace))
    assert result.deadlocked
    assert result.reports[0].provenance  # tracing replay still enriches
    enabled_s = _min_time(lambda: enabled.run(cycle_trace))
    null_s = _min_time(lambda: null.run(cycle_trace))
    benchmark.extra_info["engine"] = "incremental"
    benchmark.extra_info["records"] = len(cycle_trace)
    _assert_overhead(benchmark, enabled_s, null_s)


def test_replay_overhead_tracing_scratch(bench, benchmark, cycle_trace):
    """Same ceiling on the from-scratch engine (check-dominated)."""
    enabled, null = _engines(incremental=False)
    # Rebuild-per-record is quadratic; a coarser cadence keeps the
    # point CI-sized without changing what is being compared.
    enabled.check_every = null.check_every = 16
    result = bench(lambda: enabled.run(cycle_trace))
    assert result.deadlocked
    enabled_s = _min_time(lambda: enabled.run(cycle_trace))
    null_s = _min_time(lambda: null.run(cycle_trace))
    benchmark.extra_info["engine"] = "scratch"
    benchmark.extra_info["records"] = len(cycle_trace)
    _assert_overhead(benchmark, enabled_s, null_s)


def test_span_micro(bench, benchmark):
    """Marginal per-span cost of the ring buffer (informational)."""
    n = 2000
    keys = [f"t{i}" for i in range(8)]

    def drive(tracer) -> None:
        for _ in range(n // len(keys)):
            for key in keys:
                tracer.begin("task.blocked", f"task:{key}", key=key)
            for key in keys:
                tracer.end(key)

    live = Tracer()
    bench(lambda: drive(live))
    null_s = _min_time(lambda: drive(NULL_TRACER))
    live_s = _min_time(lambda: drive(live))
    per_span_ns = (live_s - null_s) / n * 1e9
    benchmark.extra_info["spans"] = n
    benchmark.extra_info["null_s"] = round(null_s, 5)
    benchmark.extra_info["live_s"] = round(live_s, 5)
    benchmark.extra_info["marginal_ns_per_span"] = round(per_span_ns)
