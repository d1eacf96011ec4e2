"""The traced run: what each layer costs on a workload's own inputs.

Three kinds of per-layer number (the layer is the module path under
``src/repro/``):

* a **stage span** — this file's own timer around a call into a layer's
  public functions, fed the inputs the workload just ran end to end;
* a **count** read from a registry the program already fills
  (``ReplayResult.metrics``, ``CheckStats``, ``RemoteStore``);
* a **self share** — the fraction of ``cProfile`` self time spent in a
  layer's source files during one end-to-end repetition (in-process
  workloads only).

Each function returns ``{per-layer name: value}`` for the names its
workload is listed against in README.md; ``run.py`` reports 0 under
every other name.  Only public names of ``repro`` are used, so a
refactor behind them does not have to edit the benchmark.
"""

from __future__ import annotations

import cProfile
import collections
import pstats
import random
import statistics
import threading
import time

from harness import Service, percentile, timed
from workloads import MODES, storm_script

from repro.core._native import native_enabled
from repro.core.checker import DeadlockChecker
from repro.core.dependency import DependencySnapshot
from repro.core.events import waiting_on
from repro.core.incremental import IncrementalChecker
from repro.core.scc import make_dynamic_scc
from repro.core.selection import GraphModel
from repro.distributed.delta import make_snapshot, wire_size
from repro.distributed.detector import DistributedChecker
from repro.distributed.net import RemoteStore
from repro.distributed.net.framing import decode_payload, encode_frame
from repro.distributed.net.service import CheckerServiceCore
from repro.distributed.store import InMemoryStore
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import OriginTracker, attach_provenance
from repro.runtime.phaser import Phaser
from repro.runtime.verifier import ArmusRuntime, VerificationMode
from repro.trace.codec import load_trace, save_trace
from repro.trace.events import RecordKind, delta_payload_from_obj, publish_delta
from repro.trace.replay import replay
from repro.trace.stream import iter_load

#: per-layer ``*.self_share`` name -> source-path prefixes under ``repro/``.
SHARE_FILES = {
    "trace.codec.self_share": ("trace/codec.py", "trace/events.py"),
    "trace.replay.self_share": ("trace/replay.py",),
    "core.incremental.self_share": ("core/incremental.py",),
    "core.scc.self_share": ("core/scc.py", "core/_native.py"),
    "core.graphs.self_share": ("core/graphs.py",),
    "core.cycles.self_share": ("core/cycles.py",),
    "obs.registry.self_share": ("obs/registry.py",),
    "runtime.self_share": ("runtime/",),
    "aio.self_share": ("aio/",),
}


def profiled(run, fn):
    """Run ``fn`` under cProfile: its result and the self-time share of
    every ``repro`` source file (everything else under ``<other>``)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    by_file = collections.Counter()
    for (filename, _, _), (_, _, self_s, _, _) in pstats.Stats(profile).stats.items():
        at = filename.find("/repro/")
        by_file[filename[at + 7:] if at >= 0 else "<other>"] += self_s
    total = sum(by_file.values())
    shares = {name: self_s / total for name, self_s in by_file.items()}
    run.extra["self_share_by_file"] = dict(
        sorted(shares.items(), key=lambda item: -item[1])[:15])
    return result, shares


def share_metrics(shares: dict, names) -> dict:
    return {
        name: sum(share for path, share in shares.items()
                  if path.startswith(SHARE_FILES[name]))
        for name in names
    }


def overhead(run, traced_wall: float) -> float:
    """Traced wall over the median untraced wall of the same repetition."""
    return traced_wall / statistics.median(run.samples["_once_s"])


# ---------------------------------------------------------------------------
# the replay workloads
# ---------------------------------------------------------------------------
def op_script(records):
    """The blocked-status ops a record stream carries, as ``apply_batch``
    takes them."""
    ops = []
    for rec in records:
        if rec.kind is RecordKind.BLOCK:
            ops.append(("set", rec.task, rec.status))
        elif rec.kind is RecordKind.UNBLOCK:
            ops.append(("clear", rec.task, None))
    return ops


def edge_script(ops):
    """The vertex and edge operations the status ops imply, by the
    Wait-For Graph's definition: ``t1 -> t2`` iff ``t1`` awaits
    ``(p, n)`` and the blocked ``t2`` is registered on ``p`` below ``n``.
    Same order as the ops, so the ring's seeded arrivals reach the SCC
    structure exactly as the replay feeds them."""
    statuses, registered, awaiting, script = {}, {}, {}, []

    def retract(task):
        status = statuses.pop(task)
        for phaser in status.registered:
            del registered[phaser][task]
        for event in status.waits:
            del awaiting[event.phaser][task]

    for op, task, status in ops:
        if task in statuses:
            retract(task)
            script.append(("remove", task, ()))
        if op == "clear":
            continue
        edges = []
        for event in status.waits:
            edges += [(task, other) for other, phase
                      in registered.get(event.phaser, {}).items()
                      if phase < event.phase]
        for phaser, phase in status.registered.items():
            edges += [(other, task) for other, awaited
                      in awaiting.get(phaser, {}).items() if phase < awaited]
        statuses[task] = status
        for phaser, phase in status.registered.items():
            registered.setdefault(phaser, {})[task] = phase
        for event in status.waits:
            awaiting.setdefault(event.phaser, {})[task] = event.phase
        script.append(("add", task, edges))
    return script


def drive_scc(script) -> int:
    """Feed the script to the SCC structure the way ``apply_batch`` and
    ``check()`` do at cadence 1; returns the operations applied."""
    scc = make_dynamic_scc()
    applied = 0
    for op, vertex, edges in script:
        scc.begin_batch()
        if op == "remove":
            scc.remove_vertex(vertex)
        else:
            scc.add_vertex(vertex)
            for source, target in edges:
                scc.add_edge(source, target)
            applied += len(edges)
        scc.end_batch()
        scc.has_cycle()
        applied += 1
    return applied


def counter(registry, name: str, **labels) -> int:
    instrument = registry.get(name)
    if instrument is None:
        return 0
    return instrument.value(**labels) if labels else instrument.total()


def replay_layers(run, state) -> dict:
    trace, path = state.trace, str(state.path)
    records = len(trace)
    values = {"core.scc.native": int(native_enabled())}

    with run.span("replay", "trace.replay"):
        (wall, result), shares = profiled(run, state.once)
    values["trace_overhead"] = overhead(run, wall)
    values.update(share_metrics(shares, (
        "trace.codec.self_share", "trace.replay.self_share",
        "core.incremental.self_share", "core.scc.self_share",
        "core.graphs.self_share", "core.cycles.self_share",
        "obs.registry.self_share")))

    # Counts the replay left in its own registry.
    registry = result.metrics
    kinds = registry.get("repro_replay_records_total").per_label()
    context = kinds.get(("context",), 0)
    values["trace.stream.materialized_share"] = 1 - context / records
    values["trace.replay.checks"] = counter(registry, "repro_replay_checks_total")
    values["core.incremental.delta_ops"] = counter(
        registry, "repro_incremental_delta_ops_total")
    values["core.incremental.fallback_checks"] = counter(
        registry, "repro_incremental_fallback_checks_total")
    for kind in ("pk_visits", "resolves", "extractions"):
        values[f"core.scc.{kind}"] = counter(
            registry, "repro_scc_work_total", kind=kind)
    values["obs.registry.series"] = sum(
        len(metric["values"]) for metric in registry.snapshot()["metrics"])

    # Stage spans, each fed the file or the trace the replay just ran.
    with run.span("scan", "trace.stream") as scan:
        for rec in iter_load(path).lazy_records():
            rec.kind, rec.seq
    values["trace.stream.scan_records_per_s"] = records / scan["s"]
    with run.span("decode", "trace.codec") as decode:
        load_trace(path)
    values["trace.codec.decode_records_per_s"] = records / decode["s"]
    copy = state.path.with_suffix(".copy")
    with run.span("encode", "trace.codec") as encode:
        save_trace(trace, copy, codec="binary")
    values["trace.codec.encode_records_per_s"] = records / encode["s"]
    values["trace.codec.bytes_per_record"] = copy.stat().st_size / records
    with run.span("replay-in-memory", "trace.replay") as inmem:
        replay(trace, incremental=True, check_every=1)
    values["trace.replay.inmem_events_per_s"] = records / inmem["s"]

    # The stages a streamed replay is made of; what they leave of its
    # wall is the engine's own loop, dispatch and accounting.
    with run.span("ops-from-stream", "trace.stream", parent="replay") as decode_ops:
        ops = op_script(iter_load(path).lazy_records())
    tracker = OriginTracker()
    with run.span("observe", "obs.tracing", parent="replay") as observe:
        for rec in trace.records:
            tracker.observe(rec)
    values["obs.tracing.observe_records_per_s"] = records / observe["s"]

    checker = IncrementalChecker()
    clock = time.perf_counter
    apply_s = check_s = extract_s = 0.0
    report = None
    with run.span("apply+check", "core.incremental", parent="replay"):
        for op in ops:
            t0 = clock()
            checker.apply_batch((op,))
            t1 = clock()
            found = checker.check()
            t2 = clock()
            apply_s += t1 - t0
            if found is None:
                check_s += t2 - t1
            else:
                extract_s += t2 - t1
                report = found
    values["core.incremental.apply_ops_per_s"] = len(ops) / apply_s
    values["core.incremental.check_us"] = check_s / len(ops) * 1e6
    values["core.incremental.extract_ms"] = extract_s * 1e3
    attribute_s = 0.0
    if report is not None:
        statuses = {task: status for op, task, status in ops if op == "set"}
        with run.span("attribute", "obs.tracing", parent="replay") as attribute:
            attach_provenance(report, tracker, statuses)
        attribute_s = attribute["s"]
    values["obs.tracing.attribute_ms"] = attribute_s * 1e3
    staged = (decode_ops["s"] + observe["s"] + apply_s + check_s + extract_s
              + attribute_s)
    values["trace.replay.residual_share"] = (
        1 - staged / statistics.median(run.samples["_once_s"]))

    script = edge_script(ops)
    with run.span("edge-script", "core.scc") as scc:
        applied = drive_scc(script)
    values["core.scc.edge_ops_per_s"] = applied / scc["s"]

    if hasattr(state, "scratch"):
        # The from-scratch engine's Table 3 quantities on the same trace.
        _, scratch = state.scratch()
        counts = scratch.stats.model_counts
        values["core.checker.edges_mean"] = scratch.stats.mean_edges
        values["core.checker.sg_share"] = (
            counts.get(GraphModel.SG, 0) / max(1, sum(counts.values())))
    return values


# ---------------------------------------------------------------------------
# live_barrier
# ---------------------------------------------------------------------------
def thread_phaser_sync_us(rounds: int) -> float:
    """Two OS threads, one ``Phaser``, detection on: microseconds per
    synchronisation on the thread backend."""
    runtime = ArmusRuntime(mode=VerificationMode.DETECTION, interval_s=0.1,
                           poll_s=0.005).start()
    try:
        phaser = Phaser(runtime, register_self=False, name="bar")
        gate = threading.Event()

        def body() -> None:
            gate.wait(30)
            for _ in range(rounds):
                phaser.arrive_and_await_advance()

        tasks = [runtime.spawn(body, register=[phaser], name=f"w{i}")
                 for i in range(2)]
        t0 = time.perf_counter()
        gate.set()
        for task in tasks:
            task.join(120)
        wall = time.perf_counter() - t0
    finally:
        runtime.stop()
    return wall / (2 * rounds) * 1e6


def live_layers(run, state) -> dict:
    size = run.sizes
    values = {}
    with run.span("barrier-rounds", "aio"):
        (_, last), shares = profiled(run, state.once)
    values["trace_overhead"] = overhead(run, last.raw_s)
    values.update(share_metrics(shares, (
        "runtime.self_share", "aio.self_share", "core.graphs.self_share",
        "core.cycles.self_share", "obs.registry.self_share")))
    for mode in MODES:
        values[f"aio.{mode}_sync_us"] = statistics.median(
            run.samples[f"_{mode}_sync_us"])
    stats = last.avoidance_stats
    counts = stats.model_counts
    values["core.checker.edges_mean"] = stats.mean_edges
    values["core.checker.sg_share"] = (
        counts.get(GraphModel.SG, 0) / max(1, sum(counts.values())))

    # The state every avoidance check of the barrier analyses: all
    # members but the straggler have arrived and wait for the next phase.
    blocked = {f"w{i}": waiting_on("bar", 7, bar=7)
               for i in range(size["tasks"] - 1)}
    snapshot = DependencySnapshot(statuses=blocked)
    checks = 300
    for model in (GraphModel.WFG, GraphModel.SG, GraphModel.AUTO):
        checker = DeadlockChecker(model=model)
        with run.span(f"check-{model.value}", "core.checker") as span:
            for _ in range(checks):
                checker.check(snapshot=snapshot)
        values[f"core.checker.check_{model.value}_us"] = span["s"] / checks * 1e6
    checker = DeadlockChecker()
    last, last_status = blocked.popitem()
    for task, status in blocked.items():
        checker.set_blocked(task, status)
    spent = 0.0
    with run.span("check-before-block", "core.checker"):
        for _ in range(checks):
            wall, _ = timed(checker.check_before_block, last, last_status)
            spent += wall
            checker.clear(last)
    values["core.checker.avoid_check_us"] = spent / checks * 1e6

    samples = []
    for rep in range(3):
        with run.span("thread-phaser", "runtime", rep=rep):
            samples.append(thread_phaser_sync_us(size["rounds"] * 3))
    values["runtime.thread_detection_sync_us"] = statistics.median(samples)
    run.extra["runtime.thread_detection_sync_us"] = sorted(samples)
    return values


# ---------------------------------------------------------------------------
# the service workloads
# ---------------------------------------------------------------------------
def ping_rtt_us(run, pings: int = 500) -> float:
    with Service(check_interval=0) as service, RemoteStore(
            service.host, service.port, tenant="ping") as store:
        store.ping()
        with run.span("ping", "distributed.net"):
            rtts = [timed(store.ping)[0] for _ in range(pings)]
    return percentile(rtts, 0.50) * 1e6


def framing(run, messages) -> dict:
    """Encode and decode cost of ``messages`` and their mean frame size;
    also returned under ``frames`` for callers that need the bytes."""
    with run.span("encode", "distributed.net.framing") as encode:
        frames = [encode_frame(message) for message in messages]
    with run.span("decode", "distributed.net.framing") as decode:
        for frame in frames:
            decode_payload(frame[4:])
    return {
        "distributed.net.framing.encode_us": encode["s"] / len(frames) * 1e6,
        "distributed.net.framing.decode_us": decode["s"] / len(frames) * 1e6,
        "distributed.net.framing.frame_bytes":
            sum(map(len, frames)) / len(frames),
    }


def synced_ops(registry) -> int:
    """Status ops the merge sync applied to the maintained graph."""
    return counter(registry, "repro_incremental_delta_ops_total")


def storm_layers(run, state) -> dict:
    size = run.sizes
    with run.span("storm", "distributed.net"):
        rep = state.once()
    values = {
        "trace_overhead": overhead(run, rep.wall),
        "distributed.net.server_cpu_share": rep.server_cpu_share,
        "distributed.net.client_cpu_share": rep.client_cpu_share,
        "distributed.net.transport_failures": rep.failures,
        "distributed.net.ping_rtt_us": ping_rtt_us(run),
    }
    script = rep.scripts[0]
    site, objs = script.site, script.objs
    every = size["check_every"]
    with run.span("prepare", "distributed.delta") as prepare:
        storm_script(site, len(objs), size["tasks_per_site"],
                     random.Random(2 * run.seed))
    values["distributed.delta.prepare_us"] = prepare["s"] / len(objs) * 1e6
    values["distributed.delta.bytes_per_publish"] = (
        sum(map(wire_size, objs)) / len(objs))

    requests = [{"op": "append_delta", "tenant": "storm", "site": site,
                 "obj": dict(obj)} for obj in objs]
    check = {"op": "check", "tenant": "storm"}
    values.update(framing(run, requests))

    core = CheckerServiceCore()
    append_s = check_s = 0.0
    with run.span("handle", "distributed.net.service"):
        for index, request in enumerate(requests, 1):
            wall, response = timed(core.handle, request)
            append_s += wall
            if index % every == 0:
                wall, checked = timed(core.handle, check)
                check_s += wall
    values["distributed.net.service.handle_append_us"] = (
        append_s / len(requests) * 1e6)
    values["distributed.net.service.handle_check_us"] = (
        check_s / (len(requests) // every) * 1e6)
    values["distributed.net.service.report_bytes"] = len(encode_frame(checked))
    answer = framing(run, [response] * 1000)
    per_publish = (
        values["distributed.net.framing.encode_us"]
        + values["distributed.net.framing.decode_us"]
        + values["distributed.net.service.handle_append_us"]
        + answer["distributed.net.framing.encode_us"]
        + answer["distributed.net.framing.decode_us"])
    values["distributed.net.transport_share"] = (
        1 - per_publish / (percentile(rep.publish, 0.50) * 1e6))

    payloads = [delta_payload_from_obj(obj) for obj in objs]
    registry = MetricsRegistry()
    store = InMemoryStore()
    checker = DistributedChecker(store, metrics=registry)
    append_s = read_s = sync_s = 0.0
    with run.span("append+read+sync", "distributed.store"):
        for index, payload in enumerate(payloads, 1):
            wall, _ = timed(store.append_delta, site, payload)
            append_s += wall
            wall, _ = timed(store.get_deltas, site, payload["seq"] - 1)
            read_s += wall
            if index % every == 0:
                wall, _ = timed(checker.check_global)
                sync_s += wall
    values["distributed.store.append_us"] = append_s / len(payloads) * 1e6
    values["distributed.store.get_deltas_us"] = read_s / len(payloads) * 1e6
    values["distributed.delta.sync_us"] = (
        sync_s / (len(payloads) // every) * 1e6)
    values["distributed.delta.ops_applied"] = synced_ops(registry)
    return values


def knot_layers(run, state) -> dict:
    bucket_a, bucket_b = state.buckets
    with run.span("knot", "distributed.net"):
        rep = state.once()
    values = {
        "trace_overhead": overhead(run, rep.wall),
        "distributed.net.transport_failures": 0,
        "distributed.net.ping_rtt_us": ping_rtt_us(run),
    }
    rounds = 30
    open_a = make_snapshot(1, bucket_a, "knot-A")
    closings = [make_snapshot(1, bucket_b, f"knot-B-{i}") for i in range(rounds)]
    values["distributed.delta.bytes_per_publish"] = wire_size(closings[0])

    # The service core without a socket: the same three requests an
    # iteration sends.
    core = CheckerServiceCore()
    check = {"op": "check", "tenant": "knot"}
    core.handle({"op": "append_delta", "tenant": "knot", "site": "A",
                 "obj": open_a})
    requests = [{"op": "append_delta", "tenant": "knot", "site": "B",
                 "obj": closing} for closing in closings]
    append_s = check_s = 0.0
    with run.span("handle", "distributed.net.service"):
        for request in requests:
            wall, _ = timed(core.handle, request)
            append_s += wall
            wall, answer = timed(core.handle, check)
            check_s += wall
            core.handle({"op": "delete", "tenant": "knot", "site": "B"})
    values["distributed.net.service.handle_append_us"] = append_s / rounds * 1e6
    values["distributed.net.service.handle_check_us"] = check_s / rounds * 1e6
    values["distributed.net.service.report_bytes"] = len(encode_frame(answer))
    wire = framing(run, requests + [answer] * rounds)
    values.update(wire)
    per_iteration = 2 * (wire["distributed.net.framing.encode_us"]
                         + wire["distributed.net.framing.decode_us"]) + (
        values["distributed.net.service.handle_append_us"]
        + values["distributed.net.service.handle_check_us"])
    values["distributed.net.transport_share"] = (
        1 - per_iteration / (percentile(rep.lags, 0.50) * 1e6))

    # Under the service core: store, merge sync, extraction, attribution.
    registry = MetricsRegistry()
    store = InMemoryStore()
    checker = DistributedChecker(store, metrics=registry)
    tracker = OriginTracker()
    payload = delta_payload_from_obj(open_a)
    store.append_delta("A", payload)
    tracker.observe(publish_delta(1, "A", payload))
    append_s = read_s = sync_s = extract_s = attribute_s = 0.0
    with run.span("append+sync+extract+attribute", "distributed.delta"):
        for ordinal, closing in enumerate(closings, 2):
            checker.check_global()
            payload = delta_payload_from_obj(closing)
            wall, _ = timed(store.append_delta, "B", payload)
            append_s += wall
            tracker.observe(publish_delta(ordinal, "B", payload))
            wall, _ = timed(store.get_deltas, "B", 0)
            read_s += wall
            wall, _ = timed(checker.sync)
            sync_s += wall
            wall, report = timed(checker.checker.check)
            extract_s += wall
            statuses = checker.view.merged_snapshot().statuses
            wall, _ = timed(attach_provenance, report, tracker, statuses)
            attribute_s += wall
            store.delete("B")
    values["distributed.store.append_us"] = append_s / rounds * 1e6
    values["distributed.store.get_deltas_us"] = read_s / rounds * 1e6
    values["distributed.delta.sync_us"] = sync_s / rounds * 1e6
    values["distributed.delta.ops_applied"] = synced_ops(registry)
    values["core.incremental.extract_ms"] = extract_s / rounds * 1e3
    values["obs.tracing.attribute_ms"] = attribute_s / rounds * 1e3
    return values


LAYERS = {
    "replay_ring": replay_layers,
    "replay_churn": replay_layers,
    "service_storm": storm_layers,
    "service_knot": knot_layers,
    "live_barrier": live_layers,
}
