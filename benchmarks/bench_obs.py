"""Observability overhead: the metrics layer must be nearly free.

Two kinds of points:

* **Replay overhead** — the same trace replayed through an engine with
  the default (enabled, merged) registry and through one handed
  :data:`~repro.obs.registry.NULL_REGISTRY`.  The enabled run pays for
  the engine counters, the end-of-run registry merges and the checker
  instruments; the acceptance assert pins that cost at ≤10% of the
  null-registry time (with a small absolute epsilon so micro-second
  scale noise on reduced CI sizes cannot flake the job).
* **Hook micro** — the live runtime's observer hooks
  (``block_entry``/``block_exit``) driven directly, with the no-op
  registry versus an enabled one: the per-block marginal cost of the
  blocked-task gauge and hook counters, reported in ``extra_info``
  (informational; wall-clock-per-hook, not asserted).

CI runs the suite at a reduced size (``REPRO_OBS_BENCH_TASKS``) and
uploads ``BENCH_obs.json``; run locally without the variable for
full-size numbers.

Why this file stays beside ``benchmarks/e2e/``: it holds the only
≤10% ceiling on the metrics layer.  The e2e benchmark's per-layer
``trace_overhead`` is a reported ratio, not an asserted one; folding
this ceiling into it needs a benchmark change.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.trace.corpus import AioSpec, build_trace
from repro.trace.replay import ReplayEngine

#: Acceptance size; CI overrides with a reduced count.
N_TASKS = int(os.environ.get("REPRO_OBS_BENCH_TASKS", "1000"))

#: The acceptance ceiling on metrics-enabled replay overhead.
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
    ), f"metrics-enabled replay {overhead:.1%} slower than null-registry"


def _engines(incremental: bool):
    enabled = ReplayEngine(check_every=1, incremental=incremental)
    null = ReplayEngine(
        check_every=1, incremental=incremental, metrics=NULL_REGISTRY
    )
    return enabled, null


def test_replay_overhead_incremental(bench, benchmark, cycle_trace):
    """The ≤10% acceptance point on the linear engine (hot path:
    per-record delta application, where instrument cost would show)."""
    enabled, null = _engines(incremental=True)
    result = bench(lambda: enabled.run(cycle_trace))
    assert result.deadlocked
    enabled_s = _min_time(lambda: enabled.run(cycle_trace))
    null_s = _min_time(lambda: null.run(cycle_trace))
    benchmark.extra_info["engine"] = "incremental"
    benchmark.extra_info["records"] = len(cycle_trace)
    _assert_overhead(benchmark, enabled_s, null_s)


def test_replay_overhead_scratch(bench, benchmark, cycle_trace):
    """Same ceiling on the from-scratch engine (check-dominated: the
    instruments are amortised across whole graph rebuilds)."""
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


def test_runtime_hook_micro(bench, benchmark):
    """Marginal per-hook cost of runtime telemetry (informational).

    Drives ``block_entry``/``block_exit`` directly — no threads, no
    monitor — so the difference between the no-op and enabled
    registries is exactly the gauge sync plus two counter bumps.
    """
    from repro.core.events import waiting_on
    from repro.runtime.verifier import ArmusRuntime, VerificationMode

    class FakeTask:
        def __init__(self, task_id: str) -> None:
            self.task_id = task_id

    n = 2000
    status = waiting_on("p", 1, p=1)
    tasks = [FakeTask(f"t{i}") for i in range(8)]

    def drive(runtime) -> None:
        for _ in range(n // len(tasks)):
            for task in tasks:
                runtime.block_entry(task, status)
            for task in tasks:
                runtime.block_exit(task)

    null_rt = ArmusRuntime(mode=VerificationMode.DETECTION)
    enabled_rt = ArmusRuntime(
        mode=VerificationMode.DETECTION, metrics=MetricsRegistry()
    )
    bench(lambda: drive(enabled_rt))
    null_s = _min_time(lambda: drive(null_rt))
    enabled_s = _min_time(lambda: drive(enabled_rt))
    per_hook_ns = (enabled_s - null_s) / (2 * n) * 1e9
    benchmark.extra_info["hooks"] = 2 * n
    benchmark.extra_info["null_s"] = round(null_s, 5)
    benchmark.extra_info["enabled_s"] = round(enabled_s, 5)
    benchmark.extra_info["marginal_ns_per_hook"] = round(per_hook_ns)
