"""Plumbing shared by the end-to-end benchmark's files.

Where things live, the spec in ``BENCHMARK.json``, summary statistics,
the per-run ledger (samples, operation counts, spans) and the
checker-service child process.  Nothing here imports ``repro``: the
parent half of ``run.py`` must work before ``src/`` is on the path.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

E2E = pathlib.Path(__file__).resolve().parent
ROOT = E2E.parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (gitignored): trace files, spans.json.
WORK = E2E / ".work"


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """The environment every interpreter the benchmark starts runs under:
    this checkout's ``src`` first on the path and a pinned hash seed
    (set iteration order, and with it Pearce-Kelly visit counts, follow it)."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values) -> dict:
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1))."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spread(summary: dict) -> float:
    """Interquartile distance as a share of the median."""
    return abs(summary["q3"] - summary["q1"]) / abs(summary["value"])


def set_summaries(runs: list) -> dict:
    """``metric@workload`` -> summary of one run set (``--out``'s ``runs``).

    With several runs the summary is over the runs' medians, so its
    quartiles are the run-to-run spread; a single run keeps its own
    repetition quartiles.  Names a workload only stands in for are left
    out.
    """
    entries: dict = {}
    for docs in runs:
        for doc in docs:
            for name, metric in doc["metrics"].items():
                if not metric["stand_in"]:
                    entries.setdefault(f"{name}@{doc['workload']}", []).append(metric)
    out = {}
    for key, metrics in entries.items():
        if len(metrics) == 1:
            summary = {k: metrics[0][k] for k in ("value", "q1", "q3", "n")}
        else:
            summary = summarize([m["value"] for m in metrics])
        out[key] = dict(summary, unit=metrics[0]["unit"], runs=len(metrics))
    return out


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------
#: What :func:`calibrate` takes on the nominal machine all timings are
#: scaled to.  Only a scale: changing it rescales every time alike.
NOMINAL_CALIBRATION_S = 0.02

#: Calibration samples taken on each side of a timed block.
BRACKET = 5


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python
    load of dict, set, tuple and integer traffic — what the program's
    hot paths are made of."""
    t0 = time.perf_counter()
    table, seen, total = {}, set(), 0
    for i in range(60_000):
        key = i % 4099
        table[key] = (i, total)
        seen.add(key ^ (i >> 3))
        total += len(table) + i * i % 7
    return time.perf_counter() - t0


class Machine:
    """The machine's speed around one timed block, relative to nominal.

    This box's speed drifts by 5-10 % over minutes and by more in
    bursts: with nothing else running, the 14 s medians of one 1.3 s
    replay ranged 27 % in five minutes (interquartile 6.3 %), wider than
    a 10 % bound.  Scaling each repetition by calibration loads run
    right around it (and inside it, where the workload has seams) took
    the interquartile spread of those medians from 5.4 % to 3.4 %.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self, count: int = 1) -> float:
        """Run ``count`` calibration loads; the seconds they took."""
        taken = [calibrate() for _ in range(count)]
        self.samples += taken
        return sum(taken)

    @property
    def speed(self) -> float:
        return NOMINAL_CALIBRATION_S / statistics.median(self.samples)

    def nominal(self, seconds: float) -> float:
        """``seconds`` as the nominal machine would have taken them."""
        return seconds * self.speed


# ---------------------------------------------------------------------------
# the per-run ledger
# ---------------------------------------------------------------------------
class Ledger:
    """Everything one run of one workload measured.

    ``samples`` holds one value per repetition for each metric the
    workload owns (names starting with ``_`` are kept for the traced
    run and for ``--out``, not reported); ``walls``/``ops`` hold each
    timed repetition's scaled wall and operation count, which stand-ins
    are made from; ``spans`` is filled by the traced run only.
    """

    def __init__(self, workload: str, seed: int, seconds: float, sizes: dict,
                 workdir: pathlib.Path, bracket: int = BRACKET) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.bracket = bracket
        self.samples: dict = {}
        self.walls: list = []
        self.ops: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.spans: list = []
        self.extra: dict = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def rep(self, wall_s: float, ops: int) -> None:
        self.walls.append(wall_s)
        self.ops.append(ops)

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        """Account ``count`` operations whose output check is ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def reps(self, minimum: int):
        """Repetition indices: at least ``minimum``, then until the
        run's ``seconds`` are spent."""
        start = time.perf_counter()
        index = 0
        while index < minimum or time.perf_counter() - start < self.seconds:
            yield index
            index += 1

    @contextlib.contextmanager
    def machine(self):
        """Bracket a timed block with calibration loads; the yielded
        :class:`Machine` knows the speed once the block has ended."""
        machine = Machine()
        machine.sample(self.bracket)
        try:
            yield machine
        finally:
            machine.sample(self.bracket)

    @contextlib.contextmanager
    def setup(self):
        with self.machine() as machine:
            t0 = time.perf_counter()
            yield
            wall = time.perf_counter() - t0
        self.add("setup_s", machine.nominal(wall))

    @contextlib.contextmanager
    def span(self, name: str, layer: str, parent=None, rep: int = 0):
        """Time one call into a layer; yields a dict whose ``s`` is the
        duration in seconds once the block has ended."""
        out = {}
        start = time.perf_counter_ns()
        try:
            yield out
        finally:
            end = time.perf_counter_ns()
            out["s"] = (end - start) / 1e9
            self.spans.append({
                "name": name, "layer": layer, "parent": parent,
                "workload": self.workload, "rep": rep,
                "start_ns": start, "end_ns": end,
            })


def timed(fn, *args, **kwargs):
    """``(wall_seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


# ---------------------------------------------------------------------------
# the checker service, as its operators run it
# ---------------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU a process has used (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class Service:
    """``python -m repro.distributed serve`` in a child process.

    One instance per repetition: the sixth repetition against one
    long-lived instance ran about a fifth slower in both prototype sets.
    """

    def __init__(self, check_interval: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.distributed", "serve",
             "--port", "0", "--no-obs",
             "--check-interval", str(check_interval)],
            stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        banner = self.proc.stderr.readline()
        match = re.search(r"checker service on (\S+):(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"checker service did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line for the service process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
