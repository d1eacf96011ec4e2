"""repro.trace — event-trace capture, offline replay, scenario corpora.

The trace subsystem makes the verification layer's input durable: a
*trace* is the recorded stream of blocked-status events (Section 4.1's
event-based representation) that any live run — runtime workloads,
PL interpreter programs, distributed sites — produces through its
observation hooks.  Once on disk, a trace can be replayed through the
maintained :class:`~repro.core.incremental.IncrementalChecker` (or the
from-scratch :class:`~repro.core.checker.DeadlockChecker` it is diffed
against) deterministically, under any graph model, at batch
throughput; and the corpus generator writes
parameterised scenario traces (cycle length × fan-out × site count
grids) without running a single thread.

Typical use::

    from repro.trace import TraceRecorder, replay, load_trace
    rec = TraceRecorder()
    runtime = ArmusRuntime(mode=VerificationMode.DETECTION, recorder=rec)
    ...                         # run the program
    rec.save("run.trace")       # persist (binary codec by extension)
    result = replay("run.trace")  # offline, deterministic
    assert result.reports == runtime.reports

For scale, the subsystem streams and fans out: :func:`iter_load` replays
files of any length in O(frame) memory, :class:`StreamingRecorder`
spills records to disk as they happen, and :func:`replay_corpus` fans a
trace corpus out over worker processes with deterministic, byte-stable
merged output (see ``repro.trace.stream`` / ``repro.trace.parallel``).

Command line: ``python -m repro.trace {record,replay,gen,stats}``.
"""

from repro.trace.events import (
    Trace,
    TraceFormatError,
    TraceHeader,
    TraceRecord,
    RecordKind,
    TRACE_VERSION,
    report_from_obj,
    report_to_obj,
)
from repro.trace.codec import (
    BinaryCodec,
    JsonlCodec,
    load_trace,
    save_trace,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayResult, replay
from repro.trace.stream import StreamedTrace, StreamingRecorder, iter_load
from repro.trace.parallel import (
    CorpusEntry,
    CorpusReplayResult,
    discover_traces,
    replay_corpus,
)
from repro.trace.corpus import (
    FAMILIES,
    AioSpec,
    ChurnSpec,
    ScenarioSpec,
    aio_trace,
    build_trace,
    churn_trace,
    generate_corpus,
    scenario_trace,
    verify_corpus,
    write_corpus,
)
from repro.trace.normalize import canonical_trace

__all__ = [
    "Trace",
    "TraceHeader",
    "TraceRecord",
    "TraceFormatError",
    "RecordKind",
    "TRACE_VERSION",
    "report_to_obj",
    "report_from_obj",
    "JsonlCodec",
    "BinaryCodec",
    "load_trace",
    "save_trace",
    "TraceRecorder",
    "StreamingRecorder",
    "StreamedTrace",
    "iter_load",
    "ReplayResult",
    "replay",
    "replay_corpus",
    "CorpusEntry",
    "CorpusReplayResult",
    "discover_traces",
    "ScenarioSpec",
    "ChurnSpec",
    "AioSpec",
    "scenario_trace",
    "churn_trace",
    "aio_trace",
    "build_trace",
    "FAMILIES",
    "generate_corpus",
    "write_corpus",
    "verify_corpus",
    "canonical_trace",
]
