"""The ``python -m repro.trace`` command line.

Six subcommands cover the record → persist → analyse → explain loop:

* ``record`` — run a built-in scenario under a recording runtime,
  spilling each record to ``--out`` as it happens
  (``--scenario crossed|averaging|barrier``).  A deadlocking scenario
  that ends without a report, with a failed worker or with a worker
  that never finishes exits 1;
* ``replay`` — replay one trace file, several, or whole corpus
  directories through the maintained checker, each file streamed in
  O(frame) memory.  ``--parallel N`` fans a corpus out over N worker
  processes; ``--from-scratch`` selects the reference engine that
  rebuilds the graph per check (same reports, O(N²) instead of O(N) at
  ``check_every=1``).  Corpus output on stdout is byte-identical for
  any ``--parallel`` value and either engine (timing goes to stderr,
  buffered and emitted once after the merge) — CI diffs serial against
  parallel and from-scratch output to pin it;
* ``gen`` — write a scenario corpus over parameter grids
  (``--families cycle,churn,aio``; the aio family generates the
  asyncio backend's thousand-task shapes, ``--task-counts`` scales
  them); ``--smoke`` verifies a small grid in memory (``--parallel N``
  fans the verification out) — the CI sanity job;
* ``stats`` — summarise a trace file (header, record-kind counts,
  population);
* ``explain`` — deadlock provenance: replay trace file(s) or corpus
  directories and, for every report, print which trace records put
  each cycle edge's statuses into the analysed view, the detection lag
  (record ordinals from cycle-closing record to reporting check), and
  a text waterfall of the contributing records.  Output is a pure
  function of the trace bytes — byte-identical across hash seeds,
  ``--parallel`` values and both engines.  ``--chrome OUT.json``
  additionally writes a Chrome trace-event document (load it in
  Perfetto or ``about:tracing``; single trace input only);
* ``predict`` — sound predictive deadlock detection over ok-traces
  (see :mod:`repro.predict`): build a happens-before model, enumerate
  near-miss candidates, construct a concrete reordered witness trace
  per candidate and report only candidates the existing engine
  confirms by replaying the witness (from-scratch *and* maintained).
  ``--emit-witness DIR`` saves each confirmed witness as an ordinary
  replayable trace file; ``--parallel N`` fans a corpus out; stdout is
  byte-identical across worker counts and hash seeds (same pin as
  replay/explain).

Examples::

    python -m repro.trace record --scenario crossed --out crossed.trace
    python -m repro.trace replay crossed.trace --mode detection
    python -m repro.trace replay corpus/ --parallel 4
    python -m repro.trace gen --out corpus/ --cycle-lens 2,3,4
    python -m repro.trace gen --smoke --parallel 2
    python -m repro.trace stats corpus/cycle-L3-F2-S1-R2-dl.jsonl
    python -m repro.trace explain crossed.trace --report 1
    python -m repro.trace explain corpus/ --parallel 4
    python -m repro.trace predict corpus/ --parallel 4
    python -m repro.trace predict near-miss.jsonl --emit-witness out/
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.selection import GraphModel
from repro.obs.tracing import render_report_provenance
from repro.trace.codec import load_trace, save_trace
from repro.trace.corpus import FAMILIES, Family, verify_corpus, write_corpus
from repro.trace.parallel import discover_traces, replay_corpus
from repro.trace.stream import StreamingRecorder, iter_load


def _ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _positive_int(text: str) -> int:
    """argparse type for counts: 0 or less is a usage error, not a 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _discover(args: argparse.Namespace) -> Tuple[List[pathlib.Path], bool]:
    """The work-list under ``args.trace`` and whether to print it as a
    corpus.  Every input *runs* as a corpus; corpus *output* is a
    property of the input (a directory or several files), never of
    --parallel: one invocation prints one stdout whatever the workers."""
    paths = discover_traces(args.trace)
    if not paths:
        print(f"{args.command}: no trace files under {args.trace}",
              file=sys.stderr)
    corpus_input = len(paths) > 1 or any(
        pathlib.Path(src).is_dir() for src in args.trace
    )
    return paths, corpus_input


# ---------------------------------------------------------------------------
# record: built-in recordable scenarios
# ---------------------------------------------------------------------------
def _record_crossed(runtime) -> None:
    """Two tasks in a crossed two-phaser deadlock, blocked in sequence."""
    import threading

    from repro.core.report import DeadlockError
    from repro.runtime.phaser import Phaser

    ph1 = Phaser(runtime, register_self=False, name="p")
    ph2 = Phaser(runtime, register_self=False, name="q")
    # Workers hold at the gate until everyone is registered — without
    # it the first task can sail through before the second exists.
    gate = threading.Event()

    def first() -> None:
        gate.wait(10)
        ph1.arrive_and_await_advance()

    def second() -> None:
        gate.wait(10)
        # Serialise the two blocks: t2 enters its wait only after t1 is
        # published, so the recorded order is deterministic.
        _await_blocked(runtime, 1, (t1,))
        ph2.arrive_and_await_advance()

    t1 = runtime.spawn(first, register=[ph1, ph2], name="t1")
    t2 = runtime.spawn(second, register=[ph1, ph2], name="t2")
    gate.set()
    _await_blocked(runtime, 2, (t1, t2))
    if not runtime.reports:
        runtime.monitor.poll_once()
    for task in (t1, t2):
        # Without a report nothing wakes a blocked worker, so only the
        # ones that ended are joined.  A deadlock is the outcome this
        # scenario exists for; a failed worker or a join timeout
        # propagates to ``cmd_record``.
        if runtime.reports or task.done():
            try:
                task.join(10)
            except DeadlockError:
                pass


def _record_averaging(runtime) -> None:
    """The paper's running example (Figures 1-2), bug included."""
    from repro.core.report import DeadlockError
    from repro.runtime.clock import Clock
    from repro.runtime.phaser import Phaser

    c = Clock(runtime)
    b = Phaser(runtime, register_self=True, name="join")

    def worker() -> None:
        c.advance()
        c.drop()
        b.arrive_and_deregister()

    for i in range(3):
        runtime.spawn(worker, register=[c, b], name=f"w{i}")
    try:
        b.arrive_and_await_advance()
    except DeadlockError:
        pass


def _record_barrier(runtime, n_tasks: int = 4, rounds: int = 3) -> None:
    """A deadlock-free SPMD barrier loop (records a clean trace)."""
    import threading

    from repro.runtime.phaser import Phaser

    ph = Phaser(runtime, register_self=False, name="bar")
    gate = threading.Event()

    def worker() -> None:
        gate.wait(10)
        for _ in range(rounds):
            ph.arrive_and_await_advance()

    tasks = [
        runtime.spawn(worker, register=[ph], name=f"w{i}") for i in range(n_tasks)
    ]
    gate.set()
    for task in tasks:
        task.join(30)


def _await_blocked(runtime, count: int, tasks, timeout_s: float = 10.0) -> None:
    """Poll until ``count`` tasks are blocked — or a report already
    resolved the deadlock (detection can win the race), or one of
    ``tasks`` ended (its join tells how)."""
    import time

    deadline = time.monotonic() + timeout_s
    while runtime.checker.dependency.blocked_count() < count:
        if runtime.reports or any(task.done() for task in tasks):
            return
        if time.monotonic() > deadline:
            raise TimeoutError(f"never saw {count} blocked task(s)")
        time.sleep(0.002)


SCENARIOS = {
    "crossed": _record_crossed,
    "averaging": _record_averaging,
    "barrier": _record_barrier,
}


def _emit_metrics(registry, args: argparse.Namespace, volatile: bool) -> None:
    """Write a metrics snapshot where ``--metrics-json``/``--metrics-stdout``
    asked.  Replay passes ``volatile=False`` — the deterministic slice,
    byte-identical across ``--parallel`` values; record passes ``True``
    (live telemetry includes the wall-clock instruments)."""
    if not (args.metrics_json or args.metrics_stdout):
        return
    from repro.obs.export import to_json

    text = to_json(registry, volatile=volatile)
    if args.metrics_json:
        pathlib.Path(args.metrics_json).write_text(text, encoding="utf-8")
    if args.metrics_stdout:
        sys.stdout.write(text)


def cmd_record(args: argparse.Namespace) -> int:
    """Run ``--scenario`` under a recording runtime, spilling to ``--out``."""
    from repro.runtime.tasks import TaskFailedError
    from repro.runtime.verifier import ArmusRuntime, VerificationMode

    deadlocking = args.scenario != "barrier"
    if deadlocking and args.mode == "off":
        print("record: deadlocking scenarios need --mode detection|avoidance",
              file=sys.stderr)
        return 2
    recorder = StreamingRecorder(
        args.out, meta={"scenario": args.scenario, "mode": args.mode}
    )
    metrics = None
    if args.metrics_json or args.metrics_stdout:
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    runtime = ArmusRuntime(
        mode=VerificationMode(args.mode),
        interval_s=0.02,
        poll_s=0.002,
        recorder=recorder,
        metrics=metrics,
    ).start()
    failure = None
    try:
        SCENARIOS[args.scenario](runtime)
    except (TaskFailedError, TimeoutError) as exc:
        failure = str(exc)
    finally:
        runtime.stop()
        recorder.close()
    if failure is None and deadlocking and not runtime.reports:
        failure = "the deadlock was never reported"
    if failure is not None:
        print(f"record: scenario '{args.scenario}' failed: {failure}",
              file=sys.stderr)
        return 1
    print(f"recorded {len(recorder)} event(s) from '{args.scenario}' "
          f"({args.mode}) -> {recorder.path}")
    for report in runtime.reports:
        print(report.describe())
    if metrics is not None:
        _emit_metrics(metrics, args, volatile=True)
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
def _run_replay(paths, args: argparse.Namespace):
    """The one engine call behind ``replay`` and ``explain``."""
    return replay_corpus(
        paths,
        mode=args.mode,
        model=GraphModel(args.model),
        check_every=args.check_every,
        incremental=not args.from_scratch,
        processes=args.parallel,
    )


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay trace file(s)/director(ies); print reports and throughput."""
    paths, corpus_input = _discover(args)
    if not paths:
        return 2
    # --profile wraps the whole replay (load + engine + reporting) so
    # the stats show where the wall-clock actually goes; the stats file
    # is written even when replay fails, so slow *failing* runs can be
    # profiled too.
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = _run_replay(paths, args)
        if corpus_input:
            _print_replay_corpus(result, args)
        else:
            _print_replay_single(result.entries[0], args)
        return 1 if result.mismatches else 0
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"profile: wrote {args.profile} "
                  "(inspect with `python -m pstats`)", file=sys.stderr)


def _print_replay_single(entry, args: argparse.Namespace) -> None:
    """One file — the PR-1 output format (timing on stdout)."""
    result = entry.result
    print(f"trace: {entry.path} ({result.records_processed} records, "
          f"meta={entry.meta})")
    print(
        f"replayed {result.records_processed} record(s), "
        f"{result.checks_run} check(s) in {result.duration_s * 1e3:.1f} ms "
        f"({result.events_per_sec:,.0f} events/sec, mode={result.mode})"
    )
    if not result.reports:
        print("no deadlock found")
    for report in result.reports:
        print(report.describe())
    _emit_metrics(result.metrics, args, volatile=False)
    if not entry.verdict_ok:
        print(f"VERDICT MISMATCH: trace expects deadlock={entry.expected}",
              file=sys.stderr)


def _print_replay_corpus(result, args: argparse.Namespace) -> None:
    """Corpus mode: deterministic stdout (diffable across --parallel
    values), timing on stderr where nondeterminism belongs."""
    print(f"corpus: {len(result.entries)} trace(s), mode={result.mode}")
    for entry in result.entries:
        print(
            f"--- {entry.path.name}: {entry.result.records_processed} record(s), "
            f"{entry.result.checks_run} check(s), "
            f"{len(entry.result.reports)} report(s)"
        )
        for report in entry.result.reports:
            print(report.describe())
        if not entry.verdict_ok:
            print(
                f"VERDICT MISMATCH: {entry.path.name} expects "
                f"deadlock={entry.expected}",
                file=sys.stderr,
            )
    deadlocked = sum(1 for e in result.entries if e.result.deadlocked)
    print(
        f"verdicts: {deadlocked}/{len(result.entries)} deadlocked, "
        f"{len(result.mismatches)} mismatch(es)"
    )
    _emit_metrics(result.metrics, args, volatile=False)
    # Timing goes to stderr — buffered into one write, emitted only
    # after the merge, so the per-file lines always come out whole, in
    # work-list order, regardless of how many worker processes shared
    # the stream.  (Interleaving with worker stderr mid-line is what
    # made --parallel timing undiffable in CI.)
    timing = [
        f"timing: {entry.path.name}: "
        f"{entry.result.duration_s * 1e3:.1f} ms "
        f"({entry.result.events_per_sec:,.0f} events/sec)"
        for entry in result.entries
    ]
    timing.append(
        f"replayed {result.records_processed} record(s), "
        f"{result.checks_run} check(s) in {result.duration_s * 1e3:.1f} ms "
        f"({result.events_per_sec:,.0f} events/sec, "
        f"processes={result.processes})"
    )
    sys.stderr.write("\n".join(timing) + "\n")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------
def _select_families(text: str) -> List[Family]:
    """The families ``--families`` names, in table order whatever order
    the option listed them."""
    wanted = [part.strip() for part in text.split(",") if part.strip()]
    for name in wanted:
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r} (have: {tuple(FAMILIES)})")
    return [family for name, family in FAMILIES.items() if name in wanted]


def cmd_gen(args: argparse.Namespace) -> int:
    """Generate a corpus (or run the --smoke verification grid)."""
    families = _select_families(args.families)
    if not families:
        print(f"gen: no families selected (have: {', '.join(FAMILIES)})",
              file=sys.stderr)
        return 2
    if args.smoke:
        specs = [s for family in families for s in family.specs(family.smoke)]
        results = verify_corpus(specs, processes=args.parallel)
        bad = [spec for spec, ok in results if not ok]
        for spec, ok in results:
            print(f"{'ok  ' if ok else 'FAIL'} {spec.name}")
        print(f"smoke: {len(results) - len(bad)}/{len(results)} scenarios verified")
        return 1 if bad else 0
    if args.out is None:
        print("gen: --out DIR is required (or use --smoke)", file=sys.stderr)
        return 2
    specs = []
    for family in families:
        grid = dict(family.default)
        for flag, axis in family.flags.items():
            grid[axis] = getattr(args, flag) or grid[axis]
        specs.extend(family.specs(grid))
    codecs = ("jsonl", "binary") if args.codec == "both" else (args.codec,)
    paths = write_corpus(args.out, specs, codecs=codecs)
    total = sum(p.stat().st_size for p in paths)
    print(
        f"wrote {len(paths)} trace file(s) for {len(specs)} scenario(s) "
        f"to {args.out} ({total / 1024:.1f} KiB)"
    )
    return 0


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------
def cmd_explain(args: argparse.Namespace) -> int:
    """Replay trace(s) and print each report's record provenance."""
    paths, corpus_input = _discover(args)
    if not paths:
        return 2
    if corpus_input and args.chrome:
        print("explain: --chrome needs a single trace file", file=sys.stderr)
        return 2
    result = _run_replay(paths, args)
    if corpus_input:
        _print_explain_corpus(result, args)
    else:
        _print_explain_single(result.entries[0], args)
    return 0


def _print_provenance(reports, wanted: Optional[int]) -> int:
    """Print the provenance block of every report — or of report
    ``wanted`` alone (``--report N``, 1-based; nothing when absent).
    Returns the number of blocks printed."""
    chosen = [
        (number, report) for number, report in enumerate(reports, 1)
        if wanted is None or number == wanted
    ]
    for number, report in chosen:
        print(render_report_provenance(report, number))
    return len(chosen)


def _print_explain_single(entry, args: argparse.Namespace) -> None:
    reports = entry.result.reports
    print(f"trace: {entry.path} ({entry.result.records_processed} record(s), "
          f"{len(reports)} report(s))")
    if args.report is not None and args.report > len(reports):
        raise ValueError(
            f"{entry.path} has {len(reports)} report(s), no report #{args.report}"
        )
    if not reports:
        print("no deadlock found")
    _print_provenance(reports, args.report)
    if args.chrome:
        from repro.obs.tracing import chrome_trace_from_records, render_chrome_json

        doc = chrome_trace_from_records(load_trace(entry.path), reports)
        pathlib.Path(args.chrome).write_text(
            render_chrome_json(doc), encoding="utf-8"
        )
        print(f"chrome trace: {args.chrome} "
              f"({len(doc['traceEvents'])} event(s))", file=sys.stderr)


def _print_explain_corpus(result, args: argparse.Namespace) -> None:
    """Corpus provenance: one block per trace, work-list order, stdout
    byte-identical for any ``--parallel`` value (same pin as replay).
    A corpus member without report #N is simply skipped."""
    print(f"corpus: {len(result.entries)} trace(s), mode={result.mode}")
    explained = 0
    for entry in result.entries:
        print(f"--- {entry.path.name}: {len(entry.result.reports)} report(s)")
        explained += _print_provenance(entry.result.reports, args.report)
    deadlocked = sum(1 for e in result.entries if e.result.deadlocked)
    print(f"explained {explained} report(s) across "
          f"{deadlocked}/{len(result.entries)} deadlocked trace(s)")


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------
def _emit_witnesses(out_dir, stem: str, predictions) -> int:
    """Save each confirmed prediction's witness as an ordinary trace
    file — ``<stem>-predicted-<k>.jsonl``, replayable by ``replay``."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, prediction in enumerate(predictions):
        save_trace(prediction.witness, out_dir / f"{stem}-predicted-{k}.jsonl",
                   codec="jsonl")
    return len(predictions)


def _print_predict_result(name: str, result, prefix: str = "") -> None:
    """The deterministic per-trace block both predict modes share."""
    from repro.predict.engine import MANIFEST, render_prediction

    line = (
        f"{prefix}{name}: {result.records} record(s), "
        f"outcome={result.outcome}, "
        f"{result.candidates_scanned} candidate(s), "
        f"{len(result.confirmed)} confirmed, {result.refuted} refuted"
    )
    if result.truncated:
        line += " [truncated: enumeration cap hit]"
    print(line)
    if result.outcome == MANIFEST:
        for report in result.manifest_reports:
            print(report.describe())
    for number, prediction in enumerate(result.confirmed, 1):
        print(render_prediction(prediction, number))


def cmd_predict(args: argparse.Namespace) -> int:
    """Predict deadlocks from ok-trace(s); print confirmed predictions."""
    from repro.predict.parallel import predict_corpus

    paths, corpus_input = _discover(args)
    if not paths:
        return 2
    result = predict_corpus(
        paths,
        max_candidates=args.max_candidates,
        processes=args.parallel,
    )
    written = 0
    if args.emit_witness:
        written = sum(
            _emit_witnesses(args.emit_witness, e.path.stem, e.result.confirmed)
            for e in result.entries if e.result.confirmed
        )
    if corpus_input:
        _print_predict_corpus(result, args, written)
    else:
        _print_predict_single(result.entries[0], args, written)
    return 1 if result.mismatches else 0


def _print_predict_single(entry, args: argparse.Namespace, written: int) -> None:
    result = entry.result
    print(f"trace: {entry.path}")
    _print_predict_result(entry.path.name, result)
    _emit_metrics(result.metrics, args, volatile=False)
    if not entry.verdict_ok:
        print(f"PREDICTION MISMATCH: trace expects prediction={entry.expected}",
              file=sys.stderr)
    if written:
        print(f"witnesses: {written} file(s) -> {args.emit_witness}",
              file=sys.stderr)
    print(f"predicted over {result.records} record(s) in "
          f"{result.duration_s * 1e3:.1f} ms", file=sys.stderr)


def _print_predict_corpus(result, args: argparse.Namespace, written: int) -> None:
    """Corpus prediction: deterministic stdout (diffable across
    ``--parallel`` values and hash seeds), timing on stderr."""
    print(f"corpus: {len(result.entries)} trace(s)")
    for entry in result.entries:
        _print_predict_result(entry.path.name, entry.result, prefix="--- ")
        if not entry.verdict_ok:
            print(
                f"PREDICTION MISMATCH: {entry.path.name} expects "
                f"prediction={entry.expected}",
                file=sys.stderr,
            )
    predicted = sum(1 for e in result.entries if e.result.confirmed)
    print(
        f"predictions: {result.confirmed} confirmed "
        f"({result.candidates_scanned} candidate(s) scanned, "
        f"{result.refuted} refuted) across {predicted}/"
        f"{len(result.entries)} trace(s), "
        f"{len(result.mismatches)} mismatch(es)"
    )
    _emit_metrics(result.metrics, args, volatile=False)
    timing = []
    if args.emit_witness:
        timing.append(f"witnesses: {written} file(s) -> {args.emit_witness}")
    timing.append(
        f"predicted over {len(result.entries)} trace(s) in "
        f"{result.duration_s * 1e3:.1f} ms (processes={result.processes})"
    )
    sys.stderr.write("\n".join(timing) + "\n")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------
def cmd_stats(args: argparse.Namespace) -> int:
    """Summarise one trace file in one streamed pass.  Nothing prints
    until the pass completes, so a malformed file prints only the
    error."""
    from repro.trace.events import RecordKind

    path = pathlib.Path(args.trace)
    trace = iter_load(path)
    kinds: dict = {}
    tasks, phasers, sites = set(), set(), set()
    for rec in trace:
        kinds[rec.kind.value] = kinds.get(rec.kind.value, 0) + 1
        if rec.task is not None:
            tasks.add(rec.task)
        if rec.phaser is not None:
            phasers.add(rec.phaser)
        if rec.site is not None:
            sites.add(rec.site)
        if rec.status is not None:
            phasers.update(str(e.phaser) for e in rec.status.waits)
        if rec.kind is RecordKind.PUBLISH_DELTA:
            tasks.update(rec.payload["set"])
            tasks.update(rec.payload["clear"])
    print(f"file: {path} ({path.stat().st_size} bytes)")
    print(f"version: {trace.header.version}")
    print(f"meta: {dict(trace.header.meta)}")
    print(f"records: {sum(kinds.values())}")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind}: {count}")
    print(f"tasks: {len(tasks)}, phasers: {len(phasers)}, sites: {len(sites)}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Record, replay, generate and inspect Armus event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="record a built-in scenario")
    p_record.add_argument("--scenario", choices=sorted(SCENARIOS), default="crossed")
    p_record.add_argument("--mode", choices=("off", "detection", "avoidance"),
                          default="detection")
    p_record.add_argument("--out", required=True,
                          help="output trace path, written as records arrive")
    p_record.add_argument("--metrics-json", metavar="PATH", default=None,
                          help="write the run's metrics snapshot (canonical "
                               "JSON) to PATH")
    p_record.add_argument("--metrics-stdout", action="store_true",
                          help="print the run's metrics snapshot to stdout")
    p_record.set_defaults(fn=cmd_record)

    def engine_flags(p: argparse.ArgumentParser) -> None:
        """What ``replay`` and ``explain`` share: the engine call's inputs."""
        p.add_argument("trace", nargs="+",
                       help="trace file(s) (.jsonl or .trace) and/or "
                            "corpus directories")
        p.add_argument("--mode", choices=("detection", "avoidance"),
                       default="detection")
        p.add_argument("--model", choices=("auto", "wfg", "sg"), default="auto",
                       help="graph model the reports are built in; per-model "
                            "check accounting in the metrics needs "
                            "--from-scratch (the maintained engine records "
                            "every acyclic check as a wfg check)")
        p.add_argument("--check-every", type=_positive_int, default=1)
        p.add_argument("--parallel", type=_positive_int, default=1, metavar="N",
                       help="fan a corpus out over N worker processes "
                            "(stdout stays byte-identical to serial)")
        p.add_argument("--from-scratch", action="store_true",
                       help="rebuild the analysis graph at every check "
                            "(the reference engine: same reports, O(N²) "
                            "not O(N))")

    p_replay = sub.add_parser("replay", help="replay trace file(s)")
    engine_flags(p_replay)
    p_replay.add_argument("--metrics-json", metavar="PATH", default=None,
                          help="write the run's deterministic metrics "
                               "snapshot (canonical JSON; byte-identical "
                               "for any --parallel value) to PATH")
    p_replay.add_argument("--profile", metavar="OUT.pstats", default=None,
                          help="profile the replay with cProfile and dump "
                               "pstats data to this path")
    p_replay.add_argument("--metrics-stdout", action="store_true",
                          help="print the deterministic metrics snapshot "
                               "to stdout")
    p_replay.set_defaults(fn=cmd_replay)

    p_gen = sub.add_parser("gen", help="generate a scenario corpus")
    p_gen.add_argument("--out", default=None, help="output directory")
    p_gen.add_argument("--families", default=",".join(FAMILIES),
                       help="comma-separated scenario families "
                            f"(from: {', '.join(FAMILIES)})")
    p_gen.add_argument("--cycle-lens", type=_ints, default=None)
    p_gen.add_argument("--fan-outs", type=_ints, default=None)
    p_gen.add_argument("--sites", type=_ints, default=None)
    p_gen.add_argument("--rounds", type=_ints, default=None)
    p_gen.add_argument("--task-counts", type=_ints, default=None,
                       help="aio-family task counts (default: 1000)")
    p_gen.add_argument("--codec", choices=("jsonl", "binary", "both"),
                       default="both")
    p_gen.add_argument("--smoke", action="store_true",
                       help="verify a small grid in memory; write nothing")
    p_gen.add_argument("--parallel", type=_positive_int, default=1, metavar="N",
                       help="fan --smoke verification out over N processes")
    p_gen.set_defaults(fn=cmd_gen)

    p_stats = sub.add_parser("stats", help="summarise a trace file")
    p_stats.add_argument("trace")
    p_stats.set_defaults(fn=cmd_stats)

    p_explain = sub.add_parser(
        "explain", help="map each deadlock report back to its trace records"
    )
    engine_flags(p_explain)
    p_explain.add_argument("--report", type=_positive_int, default=None,
                           metavar="N",
                           help="explain only report N (1-based; default: all)")
    p_explain.add_argument("--chrome", metavar="OUT.json", default=None,
                           help="also write a Chrome trace-event JSON "
                                "(single trace input only)")
    p_explain.set_defaults(fn=cmd_explain)

    p_predict = sub.add_parser(
        "predict",
        help="soundly predict deadlocks from ok-trace(s) by HB reordering",
    )
    p_predict.add_argument("trace", nargs="+",
                           help="trace file(s) and/or corpus directories")
    p_predict.add_argument("--parallel", type=_positive_int, default=1,
                           metavar="N",
                           help="fan a corpus out over N worker processes "
                                "(stdout stays byte-identical to serial)")
    p_predict.add_argument("--emit-witness", metavar="DIR", default=None,
                           help="save each confirmed prediction's witness "
                                "trace to DIR (replayable .jsonl files)")
    p_predict.add_argument("--max-candidates", type=_positive_int, default=64,
                           metavar="N",
                           help="cap on enumerated candidates per trace "
                                "(hitting it is flagged, never silent)")
    p_predict.add_argument("--metrics-json", metavar="PATH", default=None,
                           help="write the run's deterministic metrics "
                                "snapshot (canonical JSON) to PATH")
    p_predict.add_argument("--metrics-stdout", action="store_true",
                           help="print the deterministic metrics snapshot "
                                "to stdout")
    p_predict.set_defaults(fn=cmd_predict)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Expected operational errors (malformed traces, missing files, bad
    grid parameters) become one-line messages, not tracebacks.
    """
    from repro.trace.events import TraceFormatError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TraceFormatError as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
