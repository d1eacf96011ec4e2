"""The five workloads: generated inputs, timed repetitions, output checks.

Each function drives one workload through a :class:`harness.Ledger`
with tracing off and returns a small state object the traced run
(``layers.py``) feeds to the layer stages: the workload's own inputs
and a ``once()`` that performs one more end-to-end repetition.

Why these five, and why at these sizes, is argued in ``README.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import random
import threading
import time
import types

from harness import Service, cpu_seconds, percentile, timed

from repro.aio.scenarios import barrier_rounds, crossed_pair
from repro.core.events import waiting_on
from repro.core.report import DeadlockError
from repro.distributed.delta import DeltaPublisher, encode_bucket, make_snapshot
from repro.distributed.net import RemoteStore
from repro.runtime.verifier import ArmusRuntime, VerificationMode
from repro.trace.codec import save_trace
from repro.trace.corpus import AioSpec, build_trace
from repro.trace.events import Trace, report_to_obj, status_to_obj
from repro.trace.replay import replay

#: Input sizes.  ``full`` is what BENCHMARK.json's numbers mean; ``smoke``
#: is the tier-1 test's (every code path, no statistical value).
SIZES = {
    "full": {
        "replay_ring": {"tasks": 8000, "twin_tasks": 500, "min_reps": 5},
        "replay_churn": {"tasks": 2000, "min_reps": 3},
        "service_storm": {"tasks_per_site": 8, "appends": 7500,
                          "check_every": 50, "warmup_appends": 300,
                          "min_reps": 3},
        "service_knot": {"ring": 512, "iterations": 200,
                         "warmup_iterations": 10, "min_reps": 2},
        "live_barrier": {"tasks": 128, "rounds": 100, "avoidance_rounds": 25,
                         "min_reps": 3},
    },
    "smoke": {
        "replay_ring": {"tasks": 120, "twin_tasks": 40, "min_reps": 2},
        "replay_churn": {"tasks": 60, "min_reps": 2},
        "service_storm": {"tasks_per_site": 4, "appends": 150,
                          "check_every": 50, "warmup_appends": 20,
                          "min_reps": 2},
        "service_knot": {"ring": 24, "iterations": 12,
                         "warmup_iterations": 2, "min_reps": 2},
        "live_barrier": {"tasks": 8, "rounds": 5, "avoidance_rounds": 3,
                         "min_reps": 2},
    },
}

#: Workloads whose inputs do not depend on ``--seed`` (said in the output).
SEED_INDEPENDENT = ("replay_churn", "live_barrier")

#: Set-up runs this many times in the in-process workloads so ``setup_s``
#: is a median; the service workloads set up once per repetition anyway.
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# replay_ring
# ---------------------------------------------------------------------------
def ring_trace(tasks: int, seed: int) -> Trace:
    """The ``tasks``-task phaser ring with its ``(advance, block)`` pairs
    in seeded order.  Generator order closes every edge forwards, which
    is Pearce-Kelly's best case; a random arrival order makes the
    maintained order do real work."""
    trace = build_trace(AioSpec(tasks=tasks, shape="cycle", deadlock=True))
    records = list(trace.records)
    context, arrivals = records[:2 * tasks], records[2 * tasks:]
    pairs = [arrivals[i:i + 2] for i in range(0, len(arrivals), 2)]
    random.Random(seed).shuffle(pairs)
    records = context + [rec for pair in pairs for rec in pair]
    return Trace(header=trace.header, records=[
        dataclasses.replace(rec, seq=seq) for seq, rec in enumerate(records)
    ])


def _spans_ring(report, tasks: int) -> bool:
    """The report's cycle is a closed walk through all ``tasks`` ring
    members (task vertices under WFG, their awaited events under SG)."""
    return (len(set(report.tasks)) == tasks
            and len(report.cycle) == tasks + 1
            and len(set(report.cycle)) == tasks
            and report.cycle[0] == report.cycle[-1])


def _ring_ok(result, tasks: int, records: int) -> bool:
    if len(result.reports) != 1 or result.records_processed != records:
        return False
    report = result.reports[0]
    return (_spans_ring(report, tasks)
            and report.detection_lag == 0
            and report.detected_at == records - 1)


def replay_ring(run):
    size = run.sizes
    path = run.workdir / "ring.trace"
    for _ in range(SETUP_REPEATS):
        with run.setup():
            trace = ring_trace(size["tasks"], run.seed)
            save_trace(trace, path, codec="binary")
    records = len(trace)

    # The engines agree byte for byte, on a twin small enough for the
    # quadratic from-scratch engine.
    twin = ring_trace(size["twin_tasks"], run.seed)
    fast = replay(twin, incremental=True, check_every=1)
    slow = replay(twin, incremental=False, check_every=1)
    run.op(len(fast.reports) == 1
           and [report_to_obj(r) for r in fast.reports]
           == [report_to_obj(r) for r in slow.reports],
           "replay_ring: engines disagree on the twin")

    def once():
        gc.collect()
        wall, result = timed(replay, str(path), stream=True,
                             incremental=True, check_every=1)
        run.op(_ring_ok(result, size["tasks"], records),
               "replay_ring: wrong report")
        return wall, result

    once()  # warm-up
    for _ in run.reps(size["min_reps"]):
        with run.machine() as machine:
            wall, _ = once()
        run.add("_once_s", wall)
        run.add("_speed", machine.speed)
        run.add("events_per_s", records / machine.nominal(wall))
        run.rep(machine.nominal(wall), records)
    return types.SimpleNamespace(trace=trace, path=path, once=once)


# ---------------------------------------------------------------------------
# replay_churn
# ---------------------------------------------------------------------------
def replay_churn(run):
    size = run.sizes
    path = run.workdir / "churn.trace"
    for _ in range(SETUP_REPEATS):
        with run.setup():
            trace = build_trace(
                AioSpec(tasks=size["tasks"], shape="churn", deadlock=False))
            save_trace(trace, path, codec="binary")
    records = len(trace)

    def engine(incremental: bool):
        gc.collect()
        wall, result = timed(replay, str(path), stream=True,
                             incremental=incremental, check_every=1)
        run.op(not result.reports and result.records_processed == records,
               f"replay_churn: wrong verdict (incremental={incremental})")
        return wall, result

    engine(True), engine(False)  # warm-up
    for _ in run.reps(size["min_reps"]):
        with run.machine() as machine:
            fast_wall, fast = engine(True)
        with run.machine() as again:
            slow_wall, slow = engine(False)
        run.op(fast.reports == slow.reports, "replay_churn: engines disagree")
        run.add("_once_s", fast_wall)
        run.add("_speed", machine.speed)
        run.add("events_per_s", records / machine.nominal(fast_wall))
        run.add("scratch_events_per_s", records / again.nominal(slow_wall))
        run.rep(machine.nominal(fast_wall) + again.nominal(slow_wall),
                2 * records)
    return types.SimpleNamespace(trace=trace, path=path,
                                 once=lambda: engine(True),
                                 scratch=lambda: engine(False))


# ---------------------------------------------------------------------------
# service_storm
# ---------------------------------------------------------------------------
def storm_script(site: str, appends: int, tasks: int, rng: random.Random):
    """``appends`` wire deltas of one site — a snapshot, then one-op
    phase advances of a seeded task, with the publisher's own
    checkpoints — and the bucket the last one leaves in the store."""
    publisher = DeltaPublisher(site, stream=f"storm-{site}")
    phases = [1] * tasks
    bucket = encode_bucket({
        f"{site}-t{k}": waiting_on(f"{site}-e{k}", 1, **{f"{site}-e{k}": 1})
        for k in range(tasks)
    })
    objs = []
    for _ in range(appends):
        obj = publisher.prepare(bucket)
        publisher.commit(obj)
        objs.append(obj)
        published = bucket
        k = rng.randrange(tasks)
        phases[k] += 1
        bucket = dict(bucket)
        bucket[f"{site}-t{k}"] = status_to_obj(waiting_on(
            f"{site}-e{k}", phases[k], **{f"{site}-e{k}": phases[k]}))
    return types.SimpleNamespace(site=site, stream=publisher.stream,
                                 objs=objs, bucket=published)


def _storm_client(service, script, check_every, out):
    """One closed-loop connection: the next append goes out when the
    previous one is acknowledged, as ``Site`` publishes."""
    clock = time.perf_counter
    site, publish, checks, clean = script.site, [], [], True
    try:
        with RemoteStore(service.host, service.port, tenant="storm",
                         name=site) as store:
            store.ping()
            start = clock()
            for index, obj in enumerate(script.objs, 1):
                t0 = clock()
                store.append_delta(site, obj)
                publish.append(clock() - t0)
                if index % check_every == 0:
                    t0 = clock()
                    clean &= store.check() is None
                    checks.append(clock() - t0)
            wall = clock() - start
            out[site] = types.SimpleNamespace(
                wall=wall, publish=publish, checks=checks, clean=clean,
                failures=store.transport_failures,
                tail=store.get_state(site))
    except Exception as exc:  # a dead connection is a failed operation
        out[site] = exc


def service_storm(run):
    size = run.sizes
    sites = ("s0", "s1")
    appends = size["appends"] * len(sites)

    def once():
        """A fresh service, a warm-up on a throwaway tenant, the storm;
        ``None`` when a connection died (already accounted)."""
        with contextlib.ExitStack() as stack:
            with run.setup():
                scripts = [
                    storm_script(site, size["appends"], size["tasks_per_site"],
                                 random.Random(2 * run.seed + index))
                    for index, site in enumerate(sites)
                ]
                service = stack.enter_context(Service(check_interval=0.05))
                with RemoteStore(service.host, service.port,
                                 tenant="warmup") as store:
                    for obj in scripts[0].objs[:size["warmup_appends"]]:
                        store.append_delta(sites[0], obj)
            gc.collect()
            out = {}
            threads = [
                threading.Thread(target=_storm_client, args=(
                    service, script, size["check_every"], out))
                for script in scripts
            ]
            with run.machine() as machine:
                before = (cpu_seconds(service.pid), time.process_time(),
                          time.perf_counter())
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                after = (cpu_seconds(service.pid), time.process_time(),
                         time.perf_counter())
            rss = service.peak_rss_mib()
        dead = [repr(out[s]) for s in sites if isinstance(out[s], Exception)]
        run.op(not dead, f"service_storm: connection failed: {dead}",
               count=appends)
        if dead:
            return None
        for script in scripts:
            mine = out[script.site]
            run.op(mine.clean, "service_storm: check() saw a deadlock",
                   count=len(mine.checks))
            run.op(mine.failures == 0, "service_storm: transport failures")
            run.op(mine.tail == (script.stream, len(script.objs),
                                 script.bucket),
                   "service_storm: stored state is not the last bucket")
        window = after[2] - before[2]
        return types.SimpleNamespace(
            wall=max(out[site].wall for site in sites), rss=rss,
            machine=machine,
            publish=[s for site in sites for s in out[site].publish],
            checks=[s for site in sites for s in out[site].checks],
            failures=sum(out[site].failures for site in sites),
            server_cpu_share=(after[0] - before[0]) / window,
            client_cpu_share=(after[1] - before[1]) / window,
            scripts=scripts)

    for _ in run.reps(size["min_reps"]):
        rep = once()
        if rep is None:
            continue
        nominal = rep.machine.nominal
        run.add("_once_s", rep.wall)
        run.add("_speed", rep.machine.speed)
        run.add("publishes_per_s", appends / nominal(rep.wall))
        run.add("publish_p99_ms", nominal(percentile(rep.publish, 0.99)) * 1e3)
        run.add("check_p50_ms", nominal(percentile(rep.checks, 0.50)) * 1e3)
        run.add("peak_rss_mib", rep.rss)
        run.rep(nominal(rep.wall), appends)
    return types.SimpleNamespace(once=once)


# ---------------------------------------------------------------------------
# service_knot
# ---------------------------------------------------------------------------
def knot_buckets(ring: int, seed: int):
    """Site A's bucket — all but the last task of a ``ring``-task phaser
    ring, in seeded order — and site B's, the task that closes it."""
    def status(i):
        return waiting_on(f"c{i}", 1, **{f"c{i}": 1, f"c{(i - 1) % ring}": 0})

    order = list(range(ring - 1))
    random.Random(seed).shuffle(order)
    return (encode_bucket({f"a{i}": status(i) for i in order}),
            encode_bucket({f"a{ring - 1}": status(ring - 1)}))


def _knot_report_ok(report, ring: int) -> bool:
    if report is None or not _spans_ring(report, ring):
        return False
    origins = [o for edge in report.provenance or ()
               for o in (edge.source_origin, edge.target_origin)]
    return ({o.site for o in origins} == {"A", "B"}
            and all(o.stream is not None and o.seq is not None
                    for o in origins))


def service_knot(run):
    size = run.sizes
    bucket_a, bucket_b = knot_buckets(size["ring"], run.seed)

    def once():
        """A fresh service holding site A; every iteration closes the
        ring from site B, reads the report, and withdraws B."""
        clock = time.perf_counter

        def iteration(store, index):
            quiet = store.check() is None
            closing = make_snapshot(1, bucket_b, f"knot-B-{index}")
            sent = clock()
            store.append_delta("B", closing)
            report = store.check()
            lag = clock() - sent
            store.delete("B")
            return quiet, report, lag

        lags = []
        with contextlib.ExitStack() as stack:
            with run.setup():
                service = stack.enter_context(Service(check_interval=0))
                store = stack.enter_context(RemoteStore(
                    service.host, service.port, tenant="knot"))
                store.append_delta("A", make_snapshot(1, bucket_a, "knot-A"))
                for index in range(size["warmup_iterations"]):
                    iteration(store, -1 - index)
            gc.collect()
            with run.machine() as machine:
                start = clock()
                for index in range(size["iterations"]):
                    quiet, report, lag = iteration(store, index)
                    lags.append(lag)
                    run.op(quiet and _knot_report_ok(report, size["ring"]),
                           "service_knot: wrong verdict or report")
                    if index % 20 == 19:  # a seam: sample the machine here too
                        start += machine.sample()
                wall = clock() - start
            run.op(store.transport_failures == 0,
                   "service_knot: transport failures")
            rss = service.peak_rss_mib()
        return types.SimpleNamespace(wall=wall, lags=lags, rss=rss,
                                     machine=machine)

    for _ in run.reps(size["min_reps"]):
        rep = once()
        nominal = rep.machine.nominal
        run.add("_once_s", rep.wall)
        run.add("_speed", rep.machine.speed)
        run.add("detect_lag_p50_ms", nominal(percentile(rep.lags, 0.50)) * 1e3)
        run.add("detect_lag_p95_ms", nominal(percentile(rep.lags, 0.95)) * 1e3)
        run.add("peak_rss_mib", rep.rss)
        run.rep(nominal(rep.wall), len(rep.lags))
    return types.SimpleNamespace(once=once, buckets=(bucket_a, bucket_b))


# ---------------------------------------------------------------------------
# live_barrier
# ---------------------------------------------------------------------------
MODES = ("off", "detection", "avoidance")


def _runtime(mode: str, interval_s: float = 0.1) -> ArmusRuntime:
    return ArmusRuntime(mode=VerificationMode(mode), interval_s=interval_s,
                        poll_s=0.005).start()


def barrier_run(mode: str, tasks: int, rounds: int):
    """One asyncio run of ``tasks × rounds`` barrier synchronisations:
    ``(wall, synchronisations completed, runtime)``."""
    runtime = _runtime(mode)

    async def main() -> int:
        finished = 0
        for task in barrier_rounds(runtime, tasks, rounds):
            await task.wait(120)
            finished += 1
        return finished * rounds

    try:
        wall, syncs = timed(asyncio.run, main())
    finally:
        runtime.stop()
    return wall, syncs, runtime


def _crossed_outcome(mode: str):
    """Run the two-task knot; the errors its tasks ended with and the
    runtime's reports.  The monitor ticks every 20 ms here, so that
    set-up time is work and not a 100 ms sleep."""
    runtime = _runtime(mode, interval_s=0.02)

    async def main():
        errors = []
        for task in crossed_pair(runtime):
            try:
                await task.wait(10)
            except DeadlockError as err:
                errors.append(err)
        return errors

    try:
        return asyncio.run(main()), runtime.reports
    finally:
        runtime.stop()


def live_barrier(run):
    size = run.sizes
    # Avoidance costs about five times a plain synchronisation, so it
    # gets a quarter of the rounds: the three modes then take similar
    # walls and a run fits twice the repetitions.  Costs compare per
    # synchronisation.
    rounds = {mode: size["rounds"] for mode in MODES}
    rounds["avoidance"] = size["avoidance_rounds"]
    for _ in range(SETUP_REPEATS):
        with run.setup():
            detected, detected_reports = _crossed_outcome("detection")
            avoided, avoided_reports = _crossed_outcome("avoidance")
    run.op(bool(detected) and len(detected_reports) == 1
           and not detected_reports[0].avoided,
           "live_barrier: detection missed the crossed pair")
    run.op(len(avoided) == 1 and len(avoided_reports) == 1
           and avoided_reports[0].avoided,
           "live_barrier: avoidance did not refuse the crossed pair")

    def once(bracket=contextlib.nullcontext):
        """One run per mode: seconds per synchronisation by mode (scaled
        to the nominal machine with ``bracket=run.machine``, each mode by
        its own calibrations), the raw wall, the avoidance checker's stats."""
        cost, last = {}, types.SimpleNamespace(raw_s=0.0)
        for mode in MODES:
            gc.collect()
            with bracket() as machine:
                wall, syncs, runtime = barrier_run(
                    mode, size["tasks"], rounds[mode])
            cost[mode] = (machine.nominal(wall) if machine else wall) / syncs
            last.raw_s += wall
            run.op(syncs == size["tasks"] * rounds[mode]
                   and not runtime.reports,
                   f"live_barrier: {mode} run lost synchronisations "
                   "or reported a deadlock", count=syncs)
        last.avoidance_stats = runtime.checker.stats
        return cost, last

    once()  # warm-up
    for _ in run.reps(size["min_reps"]):
        cost, last = once(run.machine)
        run.add("_once_s", last.raw_s)
        run.add("syncs_per_s", 1 / cost["detection"])
        run.add("overhead_detection", cost["detection"] / cost["off"])
        run.add("overhead_avoidance", cost["avoidance"] / cost["off"])
        for mode in MODES:
            run.add(f"_{mode}_sync_us", cost[mode] * 1e6)
        run.rep(sum(cost.values()), len(MODES))
    return types.SimpleNamespace(once=once)


WORKLOADS = {
    "replay_ring": replay_ring,
    "replay_churn": replay_churn,
    "service_storm": service_storm,
    "service_knot": service_knot,
    "live_barrier": live_barrier,
}
