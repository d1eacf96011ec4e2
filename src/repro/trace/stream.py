"""Streaming trace I/O: O(frame) reads and spill-to-disk recording.

* :func:`iter_load` returns a :class:`StreamedTrace` — a path, its
  header (the first thing in the file under both codecs) and the
  records as a re-iterable lazy stream: every iteration opens the file
  and runs one :class:`~repro.trace.codec.TraceReader` over it, the
  same reader :func:`~repro.trace.codec.load_trace` materialises a
  tuple from.  Peak memory is one read chunk plus one frame, so a
  million-event trace replays in constant space.
* :class:`StreamingRecorder` is a drop-in :class:`TraceRecorder` that
  writes each record to disk the moment it is observed instead of
  buffering the run — recording is then bounded by disk, not RAM, and a
  crash mid-run loses at most the unflushed tail of the file.

Truncation tolerance closes the loop between the two: a run that died
mid-write leaves a trailing partial frame (or partial JSON line), and
``iter_load(path, on_truncation="ignore")`` replays every complete
record before it instead of failing.  Anything malformed *before* the
tail is still a hard :class:`~repro.trace.events.TraceFormatError` —
tolerance is for crashes, not for corruption.
"""

from __future__ import annotations

import pathlib
from typing import Iterator, Optional

from repro.trace import events as ev
from repro.trace.codec import PathLike, TraceReader, codec_for, load_trace, save_trace
from repro.trace.events import TraceRecord
from repro.trace.recorder import TraceRecorder


class StreamedTrace:
    """A trace opened for incremental reading.

    The header is read eagerly (callers always need the meta before
    deciding how to replay); iterating yields records one frame at a
    time, re-reading the file from the top on every fresh iteration, so
    the object can be replayed repeatedly like an in-memory
    :class:`~repro.trace.events.Trace` — just without its footprint.
    """

    def __init__(self, path: PathLike, on_truncation: str = "error") -> None:
        self.path = pathlib.Path(path)
        self.on_truncation = on_truncation
        with open(self.path, "rb") as fp:
            reader = TraceReader(fp, on_truncation)
        self.header = reader.header
        self.is_binary = reader.is_binary

    def _pass(self, records) -> Iterator[TraceRecord]:
        """One pass of ``records(reader)`` over the file, which closes
        when the iteration ends."""
        with open(self.path, "rb") as fp:
            yield from records(TraceReader(fp, self.on_truncation))

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._pass(iter)

    def lazy_records(self) -> Iterator[TraceRecord]:
        """Iterate records as replay reads them, context frames as
        :class:`~repro.trace.codec.ContextRecord`; see
        :meth:`~repro.trace.codec.TraceReader.lazy_records`."""
        return self._pass(TraceReader.lazy_records)


def iter_load(path: PathLike, on_truncation: str = "error") -> StreamedTrace:
    """Open ``path`` for streaming replay (codec sniffed from magic).

    The counterpart of :func:`~repro.trace.codec.load_trace` that never
    materialises the record list: feed the result straight to
    :func:`repro.trace.replay.replay` (or iterate it yourself) and peak
    memory stays at one frame.  ``on_truncation="ignore"`` makes a
    trailing partial frame (a crashed :class:`StreamingRecorder` run)
    end the stream instead of raising.
    """
    return StreamedTrace(path, on_truncation=on_truncation)


class StreamingRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that spills every record to disk.

    Drop-in at every observation point (runtime, stores, sites, PL
    interpreter): the constructor writes the header, each ``record_*``
    call appends one encoded record to the file under the recorder
    lock, and memory stays O(1) no matter how long the run.  The header
    meta is therefore fixed at construction time.

    Parameters
    ----------
    path:
        Output file; the codec is inferred from the extension unless
        ``codec`` names one explicitly.

    Flushing is left to the ``io`` buffering: the tail of an unflushed
    run is lost on a crash, which ``iter_load``'s
    ``on_truncation="ignore"`` is built to tolerate.
    """

    def __init__(
        self,
        path: PathLike,
        meta=None,
        codec: Optional[str] = None,
    ) -> None:
        super().__init__(meta=meta)
        self.path = pathlib.Path(path)
        self._codec = codec_for(self.path, codec)
        self._written = 0
        self._closed = False
        self._fp = open(self.path, "wb")
        header = ev.TraceHeader(version=ev.TRACE_VERSION, meta=dict(self.meta))
        self._header_size = self._fp.write(self._codec.encode_header(header))

    # -- the overridden sink -------------------------------------------
    def _append(self, make) -> ev.TraceRecord:
        with self._lock:
            if self._closed:
                raise RuntimeError("StreamingRecorder is closed")
            rec = make(self._seq)
            self._seq += 1
            self._fp.write(self._codec.encode_record(rec))
            self._written += 1
            return rec

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        """Push buffered records to the OS."""
        with self._lock:
            if not self._closed:
                self._fp.flush()

    def close(self) -> pathlib.Path:
        """Flush and close the file; further records are an error."""
        with self._lock:
            if not self._closed:
                self._fp.flush()
                self._fp.close()
                self._closed = True
        return self.path

    def __enter__(self) -> "StreamingRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- TraceRecorder API, re-routed through the file ------------------
    def trace(self) -> ev.Trace:
        """Eagerly load back everything written so far.

        Convenient for tests and small runs; for large traces iterate
        :func:`iter_load` instead — loading back defeats the point.
        The lock is held across flush *and* read: a concurrent
        ``record_*`` must not land a half-flushed frame between them.
        """
        with self._lock:
            if not self._closed:
                self._fp.flush()
            return load_trace(self.path)

    def save(self, path=None, codec: Optional[str] = None):
        """Close the stream; re-encode only when a *different* target is
        named (the records are already on disk at :attr:`path`)."""
        self.close()
        if path is None or pathlib.Path(path) == self.path:
            return self.path
        return save_trace(load_trace(self.path), path, codec=codec)

    def clear(self) -> None:
        """Truncate back to the header (the seq counter keeps going)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("StreamingRecorder is closed")
            self._fp.flush()
            self._fp.seek(self._header_size)
            self._fp.truncate()
            self._written = 0

    def __len__(self) -> int:
        with self._lock:
            return self._written
