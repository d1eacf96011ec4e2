"""The checker service's TCP transport: asyncio, length-prefixed JSON.

:class:`CheckerService` binds a
:class:`~repro.distributed.net.service.CheckerServiceCore` to a real
socket.  Each client connection is one :class:`asyncio.Protocol`
object, not a task: ``data_received`` dispatches every request the
chunk completed and answers them with one ``transport.write``, so
connections ready in the same poll are served in the same loop
iteration.  Dispatch itself is synchronous — every operation is
O(change) store or checker work under the tenant lock — so a single
event loop serialises the hot path without thread hand-offs.  A peer
that stops reading its answers stops being read (``pause_writing``).

Lifecycle mirrors :class:`~repro.obs.server.MetricsHTTPServer`:

* :meth:`start` runs the event loop in a daemon thread and returns once
  the socket is bound (``port=0`` picks a free port, read it back from
  :attr:`port`) — the embedded form tests and benches use;
* :meth:`serve_forever` runs the loop on the calling thread — the
  ``python -m repro.distributed serve`` form;
* :meth:`stop` is idempotent, joins the loop thread, and returns a
  clean/dirty flag like :meth:`repro.distributed.site.Site.stop` — a
  wedged loop is *reported*, never silently leaked.

A periodic task runs one detection pass per tenant every
``check_interval_s`` (0 disables it: tests drive checks explicitly
through the ``check`` op), so deadlock reports land without any client
polling and ``/healthz`` flips to 503 service-side.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import deque
from typing import Optional

from repro.core.selection import GraphModel
from repro.distributed.net.framing import FrameDecoder, FrameError, encode_frame
from repro.distributed.net.service import CheckerServiceCore

log = logging.getLogger(__name__)

__all__ = ["CheckerService", "DEFAULT_PORT"]

#: Default service port (obs serves 9464 next door).
DEFAULT_PORT = 9555

#: The paper's distributed detection period (matches Site's default).
DEFAULT_CHECK_INTERVAL_S = 0.2

#: Answers accumulated past this many bytes are written out mid-batch,
#: so the transport can ask for a pause before the batch is through
#: (asyncio's default high-water mark).
_FLUSH_BYTES = 64 << 10


class _Connection(asyncio.Protocol):
    """One client connection: request frames in, answer frames out."""

    def __init__(self, service: "CheckerService") -> None:
        self._service = service
        self._decoder = FrameDecoder()
        self._requests: deque = deque()  # decoded, not yet answered
        self._paused = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._service._transports.add(transport)
        self._service._m_connections.inc()

    def connection_lost(self, exc) -> None:
        self._service._transports.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        """Answer, in order and with one write, every request ``data``
        completed — until none is left or the peer has stopped reading
        its answers (``resume_writing`` picks up where this left off)."""
        handle, write = self._service.core.handle, self._transport.write
        requests, frames, size = self._requests, [], 0
        try:
            requests.extend(self._decoder.feed(data))
            while requests and not self._paused:
                frame = encode_frame(handle(requests.popleft()))
                frames.append(frame)
                size += len(frame)
                if size >= _FLUSH_BYTES:  # may pause us, synchronously
                    write(b"".join(frames))
                    frames, size = [], 0
                    if self._transport.is_closing():  # the write failed
                        requests.clear()
            if frames:
                write(b"".join(frames))
        except FrameError:
            self._transport.close()  # spoke garbage: this connection only

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self.data_received(b"")
        if not self._paused:
            self._transport.resume_reading()


class CheckerService:
    """A network-native checker service over :class:`CheckerServiceCore`.

    Construction does not bind the socket; :meth:`start` (background
    thread) or :meth:`serve_forever` (calling thread) does, and
    :attr:`port`/:attr:`address` are valid once either returns control
    (``start`` blocks until the socket is live).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        model: GraphModel = GraphModel.AUTO,
        check_interval_s: float = DEFAULT_CHECK_INTERVAL_S,
        metrics=None,
        tracer=None,
        store_factory=None,
    ) -> None:
        self.host = host
        self.port = port
        self.check_interval_s = max(0.0, float(check_interval_s))
        self.core = CheckerServiceCore(
            model=model, metrics=metrics, tracer=tracer,
            store_factory=store_factory,
        )
        self.metrics = metrics = self.core.metrics
        self._m_connections = metrics.counter(
            "repro_net_connections_total",
            "Client connections accepted by the checker service.",
        )
        self._m_check_rounds = metrics.counter(
            "repro_net_check_rounds_total",
            "Periodic service-side detection rounds, across tenants.",
            volatile=True,
        )
        self._m_check_seconds = metrics.histogram(
            "repro_net_check_duration_seconds",
            "Service-side detection pass latency.",
            buckets=(0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0),
            volatile=True,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._transports: set = set()  # live connections (loop thread only)
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    # -- obs-server integration pass-throughs --------------------------
    def health_doc(self, tenant: Optional[str] = None) -> dict:
        return self.core.health_doc(tenant)

    def tracer_for(self, tenant: Optional[str] = None):
        return self.core.tracer_for(tenant)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def _periodic_checks(self) -> None:
        while True:
            await asyncio.sleep(self.check_interval_s)
            for name in self.core.tenant_names():
                started = time.perf_counter()
                try:
                    self.core.tenant(name).check()
                except Exception:
                    # A tenant with an unavailable / conflicted store
                    # must not stall the others; its own health doc and
                    # error counters carry the evidence.
                    log.exception("periodic check failed for tenant %s", name)
                self._m_check_rounds.inc()
                self._m_check_seconds.observe(time.perf_counter() - started)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        try:
            server = await self._loop.create_server(
                lambda: _Connection(self), self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        checker_task = (
            asyncio.create_task(self._periodic_checks())
            if self.check_interval_s > 0 else None
        )
        async with server:
            try:
                await self._stop_async.wait()
            finally:
                if checker_task is not None:
                    checker_task.cancel()
                # Close still-open client connections deliberately (a
                # peer that never reads must not hold shutdown: abort,
                # not flush) before the server waits for them.
                for transport in list(self._transports):
                    transport.abort()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "CheckerService":
        """Serve in a daemon thread; returns once the socket is bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="checker-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(10):
            raise RuntimeError("checker service failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(5)
            raise RuntimeError(
                f"checker service could not bind {self.host}:{self.port}"
            ) from self._startup_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception:
            if self._startup_error is None:  # bind errors already surfaced
                log.exception("checker service event loop died")
            self._started.set()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted or stopped."""
        asyncio.run(self._main())

    def stop(self, timeout: float = 5.0) -> bool:
        """Shut down; returns ``True`` when the loop thread exited
        within ``timeout`` (``False`` = dirty: logged, thread leaked)."""
        if self._stopped:
            return True
        self._stopped = True
        if self._loop is not None and self._stop_async is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:
                pass  # loop already closed
        clean = True
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                log.warning(
                    "checker service thread still alive %.1fs after stop",
                    timeout,
                )
                clean = False
            self._thread = None
        return clean

    def __enter__(self) -> "CheckerService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
