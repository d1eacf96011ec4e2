"""The repo's benchmark: five workloads, end to end and layer by layer.

    python benchmarks/e2e/run.py [--workload W]... [--seed N] [--seconds S]
                                 [--trace [0|1]] [--smoke] [--repeat K]
                                 [--out F] [--record]

Every workload runs in a fresh interpreter (``PYTHONHASHSEED=0``, this
checkout's ``src`` on the path, ambient ``REPRO_NATIVE`` recorded, not
forced).  Every metric is printed by name with its unit, as the median
over the workload's repetitions with quartiles and sample count;
outputs are checked and a miss is a failed operation and a non-zero
exit.  End-to-end metrics are measured with tracing off; ``--trace``
is a separate run that produces the per-layer numbers and writes
``.work/spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of BENCHMARK.json, or with ``--trace 1`` every
per-layer metric.  With several workloads the metric keys read
``name@workload``.  See README.md for what each name means.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

from harness import (BRACKET, E2E, NOMINAL_CALIBRATION_S, ROOT, SRC, WORK, Ledger,
                     child_env, load_spec, set_summaries, summarize)

#: A child gets this long before the parent gives up on it.
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# the child: one workload, in this interpreter
# ---------------------------------------------------------------------------
def stand_in(metric: dict, run: Ledger) -> float:
    """The value a workload reports under an end-to-end name it does not
    own.  The contract wants every name on every run, so the name
    carries the workload's median time per operation in the name's
    kind: operations per second, milliseconds per operation, or — for
    the overhead ratios — calibration loads per operation."""
    per_op = statistics.median(w / n for w, n in zip(run.walls, run.ops))
    if metric["better"] == "higher":
        return 1.0 / per_op
    if metric["unit"] == "ms":
        return per_op * 1e3
    return per_op / NOMINAL_CALIBRATION_S


def run_child(args) -> dict:
    import resource

    import workloads
    from repro.core._native import native_available, native_enabled

    spec = load_spec()
    sizes = workloads.SIZES["smoke" if args.smoke else "full"][args.child]
    # The traced run spends half its time on untraced repetitions (the
    # base of trace_overhead) and the rest on the layer stages.
    seconds = args.seconds / 2 if args.trace else args.seconds
    run = Ledger(args.child, args.seed, seconds, sizes,
                 workdir=pathlib.Path(args.workdir),
                 bracket=1 if args.smoke else BRACKET)
    state = workloads.WORKLOADS[args.child](run)
    if "peak_rss_mib" not in run.samples:
        run.add("peak_rss_mib",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    doc = {
        "workload": args.child,
        "seed": args.seed,
        "ignores_seed": args.child in workloads.SEED_INDEPENDENT,
        "sizes": sizes,
        "repetitions": len(run.walls),
        "samples": run.samples,
        "native_available": native_available(),
        "native_active": native_enabled(),
    }
    if args.trace:
        import layers

        values = layers.LAYERS[args.child](run, state)
        doc["metrics"] = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"], "measured": m["name"] in values}
            for m in spec["per_layer"]
        }
        unknown = set(values) - {m["name"] for m in spec["per_layer"]}
        run.op(not unknown, f"per-layer names not in BENCHMARK.json: {unknown}")
        doc["spans"] = run.spans
        doc["extra"] = run.extra
    else:
        doc["metrics"] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in run.samples:
                entry = summarize(run.samples[name])
                entry["stand_in"] = False
            else:
                value = stand_in(metric, run)
                entry = {"value": value, "q1": value, "q3": value,
                         "n": len(run.walls), "stand_in": True}
            entry["unit"] = metric["unit"]
            doc["metrics"][name] = entry
    doc.update(attempted=run.attempted, failed=run.failed,
               failures=run.failures)
    return doc


# ---------------------------------------------------------------------------
# the parent: fresh interpreters, printing, recording
# ---------------------------------------------------------------------------
def environment(args) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE"),
    }


def spawn(workload: str, args, workdir: str) -> dict:
    """Run one workload in a fresh interpreter and its own session, so
    that a child that overruns is killed together with any service it
    started."""
    command = [sys.executable, str(E2E / "run.py"), "--child", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, env=child_env(), cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if child.returncode != 0:
        raise SystemExit(f"workload {workload} failed to run "
                         f"(exit {child.returncode})")
    return json.loads(stdout.splitlines()[-1])


def show(doc: dict) -> None:
    seed = "ignores --seed" if doc["ignores_seed"] else f"seed {doc['seed']}"
    print(f"\n== {doc['workload']} ({seed}; {doc['repetitions']} repetitions; "
          f"sizes {doc['sizes']}; native kernel "
          f"{'active' if doc['native_active'] else 'off'})")
    for name, m in doc["metrics"].items():
        if m.get("stand_in") or m.get("measured") is False:
            continue
        line = f"{name + '@' + doc['workload']:58s} {m['value']:14.6g} {m['unit']}"
        if m.get("n", 1) > 1:
            line += f"   [{m['q1']:.6g}, {m['q3']:.6g}]  n={m['n']}"
        print(line)
    rate = doc["failed"] / doc["attempted"]
    print(f"{'error_rate@' + doc['workload']:58s} {rate:14.6g} "
          f"({doc['failed']} failed of {doc['attempted']} attempted)")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")


def record(env: dict, runs: list) -> None:
    """Append this run set to HISTORY.jsonl as one dated row: every
    end-to-end median a workload owns, with quartiles."""
    row = {key: env[key] for key in
           ("date", "sha", "seed", "seconds", "nproc", "python", "REPRO_NATIVE")}
    row["metrics"] = set_summaries(runs)
    with open(E2E / "HISTORY.jsonl", "a") as fp:
        fp.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every path, measures nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--record", action="store_true",
                        help="append the end-to-end medians to HISTORY.jsonl")
    parser.add_argument("--child", choices=names, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    selected = args.workload or names
    env = environment(args)
    print(f"# {env}")
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    runs = []
    try:
        for _ in range(args.repeat):
            docs = [spawn(workload, args, workdir) for workload in selected]
            for doc in docs:
                show(doc)
            runs.append(docs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        for docs in runs:  # the last run's spans are the ones kept
            spans = [span for doc in docs for span in doc.pop("spans")]
        (WORK / "spans.json").write_text(json.dumps(spans))
        print(f"\n{len(spans)} spans written to {WORK / 'spans.json'}")
    if args.out:
        with open(args.out, "w") as fp:
            json.dump({"env": env, "runs": runs}, fp, indent=1)
    if args.record and not args.trace:
        record(env, runs)

    last = runs[-1]
    single = len(last) == 1
    metrics = {
        (name if single else f"{name}@{doc['workload']}"):
            {"value": m["value"], "unit": m["unit"]}
        for doc in last for name, m in doc["metrics"].items()
    }
    attempted = sum(doc["attempted"] for docs in runs for doc in docs)
    failed = sum(doc["failed"] for docs in runs for doc in docs)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = failed == 0 and finite
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
