"""Observability overhead: what one runtime hook pays for telemetry.

**Hook micro** — the live runtime's observer hooks
(``block_entry``/``block_exit``) driven directly, with the no-op
registry (the runtime's default) versus an enabled one: the per-block
marginal cost of the blocked-task gauge and hook counters, reported in
``extra_info`` (informational; wall-clock-per-hook, not asserted).

There is no replay arm: a replay always carries its run registry, so
no metrics-off replay exists to compare against.  The metrics layer's
measured share of a replay is ``obs.registry.self_share`` of the
``benchmarks/e2e`` ``--trace 1`` run.

CI uploads ``BENCH_obs.json``.
"""

from __future__ import annotations

import time

from repro.obs.registry import MetricsRegistry


def _min_time(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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
