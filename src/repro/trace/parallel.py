"""Multi-process corpus runs with deterministic result merging.

A trace corpus is an embarrassingly parallel work-list: files share no
state, so replaying N of them is N independent checker runs.
:func:`run_corpus` is the one driver behind every corpus verb
(:func:`replay_corpus`, :func:`repro.predict.parallel.predict_corpus`):
it fans the work-list out with :func:`fan_out` (one worker handles one
file at a time — real parallelism, since each worker is its own
interpreter) and folds the outcomes into a single :class:`CorpusResult`.

Determinism is the design constraint, not an afterthought:

* the work-list is discovered in sorted path order and results are
  merged in *submission* order (``executor.map`` preserves it), so the
  merged output is independent of worker scheduling;
* per-file reports are themselves deterministic because cycle
  extraction is canonical (see :mod:`repro.core.cycles`) — two
  processes with different hash seeds extract the same cycle;
* aggregate accounting uses :meth:`~repro.obs.registry.MetricsRegistry.
  merge`, which is order-insensitive for every field it folds (sums,
  histogram buckets and extrema).

Net effect: ``replay_corpus(dir, processes=4)`` produces reports
byte-identical to ``replay_corpus(dir, processes=1)`` — pinned by CI,
which diffs the CLI's stdout between the two.  Timing fields
(``duration_s``, per-file throughput) are the only nondeterministic
outputs, and the CLI keeps them off stdout for exactly that reason.
"""

from __future__ import annotations

import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ClassVar, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.core.checker import CheckStats
from repro.core.report import DeadlockReport
from repro.core.selection import GraphModel
from repro.obs.registry import MetricsRegistry
from repro.trace.codec import PathLike
from repro.trace.replay import DETECTION, ReplayResult, check_settings, replay
from repro.trace.stream import iter_load

#: File suffixes recognised as trace files when expanding directories.
TRACE_SUFFIXES = (".jsonl", ".json", ".trace", ".bin")


def discover_traces(
    sources: Union[PathLike, Sequence[PathLike]]
) -> List[pathlib.Path]:
    """Expand files and directories into a deterministic work-list.

    Directories contribute their trace files (by suffix) in sorted name
    order; explicit files are kept as given.  Duplicates are dropped,
    first occurrence wins — the resulting order *is* the merge order.
    """
    if isinstance(sources, (str, pathlib.Path)) or hasattr(sources, "__fspath__"):
        sources = [sources]
    paths: List[pathlib.Path] = []
    for src in sources:
        path = pathlib.Path(src)
        if path.is_dir():
            paths.extend(
                sorted(
                    p
                    for p in path.iterdir()
                    if p.is_file() and p.suffix.lower() in TRACE_SUFFIXES
                )
            )
        else:
            paths.append(path)
    unique: List[pathlib.Path] = []
    seen = set()
    for path in paths:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


@dataclass
class CorpusEntry:
    """One file's outcome inside a corpus run.  The verdict rule lives
    here; a verb supplies its two facts — the meta key declaring the
    expected verdict and what its run observed."""

    expect_key: ClassVar[str] = "expect_deadlock"

    path: pathlib.Path
    meta: dict
    result: Any

    @property
    def observed(self) -> bool:
        return self.result.deadlocked

    @property
    def expected(self) -> Optional[bool]:
        """The trace's self-declared verdict, if it carries one."""
        value = self.meta.get(self.expect_key)
        return None if value is None else bool(value)

    @property
    def verdict_ok(self) -> bool:
        """Whether the run matched the expected verdict (vacuously
        true for traces without one)."""
        expected = self.expected
        return expected is None or self.observed == expected


@dataclass
class CorpusResult:
    """The merged outcome of one verb over a corpus.

    ``entries`` preserves work-list order; ``metrics`` is the
    :meth:`~repro.obs.registry.MetricsRegistry.merge` fold over every
    file's run registry.  Workers build theirs independently and the
    merge is order-insensitive, so the non-volatile snapshot is
    byte-identical across process counts.
    """

    entry_type: ClassVar[type] = CorpusEntry

    processes: int = 1
    entries: List[CorpusEntry] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    duration_s: float = 0.0

    @property
    def mismatches(self) -> List[CorpusEntry]:
        """Entries whose verdict contradicts their metadata."""
        return [e for e in self.entries if not e.verdict_ok]


@dataclass
class CorpusReplayResult(CorpusResult):
    """A corpus replay: ``stats`` reads every file's checker accounting
    — the corpus-wide Table 3 quantities — off the merged ``metrics``."""

    mode: str = DETECTION

    @property
    def stats(self) -> CheckStats:
        return CheckStats(self.metrics)

    @property
    def records_processed(self) -> int:
        return sum(e.result.records_processed for e in self.entries)

    @property
    def checks_run(self) -> int:
        return sum(e.result.checks_run for e in self.entries)

    @property
    def reports(self) -> List[DeadlockReport]:
        """All reports, in work-list order then per-file discovery order."""
        out: List[DeadlockReport] = []
        for entry in self.entries:
            out.extend(entry.result.reports)
        return out

    @property
    def events_per_sec(self) -> float:
        """Wall-clock corpus throughput (the fan-out speedup metric)."""
        if self.duration_s <= 0:
            return 0.0
        return self.records_processed / self.duration_s


def fan_out(worker: Callable, jobs: Iterable, processes: int = 1) -> list:
    """Map ``worker`` over ``jobs``, results in submission order.

    The only serial-or-pool switch: ``processes <= 1`` (or a single
    job) runs in process — the serial reference — anything else on a
    pool of at most ``processes`` workers, so ``worker`` and the jobs
    must be picklable (module-level function, plain data).
    """
    jobs = list(jobs)
    if processes <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(processes, len(jobs))) as pool:
        return list(pool.map(worker, jobs))


def run_corpus(
    sources: Union[PathLike, Sequence[PathLike]],
    worker: Callable,
    job_of: Callable[[str], Any],
    merged: CorpusResult,
) -> CorpusResult:
    """Run one verb over a corpus: discover the work-list, fan
    ``worker(job_of(path))`` out over ``merged.processes``, fold each
    ``(meta, result)`` into ``merged`` in work-list order — this loop
    *is* the merge order — and time the whole."""
    paths = discover_traces(sources)
    if not paths:
        raise ValueError(f"no trace files found under {sources!r}")
    t0 = time.perf_counter()
    outcomes = fan_out(worker, [job_of(str(p)) for p in paths], merged.processes)
    for path, (meta, result) in zip(paths, outcomes):
        merged.entries.append(merged.entry_type(path, meta, result))
        merged.metrics.merge(result.metrics)
    merged.duration_s = time.perf_counter() - t0
    return merged


def _replay_one(
    args: Tuple[str, str, GraphModel, int, bool]
) -> Tuple[dict, ReplayResult]:
    """Worker body: stream one file through :func:`replay`; must stay
    module-level picklable."""
    path, mode, model, check_every, incremental = args
    source = iter_load(path)
    return dict(source.header.meta), replay(
        source, mode, model, check_every, incremental
    )


def replay_corpus(
    sources: Union[PathLike, Sequence[PathLike]],
    mode: str = DETECTION,
    model: GraphModel = GraphModel.AUTO,
    check_every: int = 1,
    incremental: bool = True,
    processes: int = 1,
) -> CorpusReplayResult:
    """Replay every trace under ``sources``, fanning out over processes.

    Each file is streamed (:func:`~repro.trace.stream.iter_load`), so a
    worker holds one frame of it at a time.  The settings are
    :func:`~repro.trace.replay.replay`'s, refused up front when bad.
    ``processes <= 1`` runs in-process (the serial reference);
    ``processes = N`` uses a pool of N workers.  Either way the merged
    result is identical — only ``duration_s`` changes.
    """
    check_settings(mode, check_every)
    return run_corpus(
        sources,
        _replay_one,
        lambda path: (path, mode, model, check_every, incremental),
        CorpusReplayResult(mode=mode, processes=max(1, processes)),
    )
