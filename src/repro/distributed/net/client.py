"""``RemoteStore``: the five-method store surface over a real socket.

A blocking, thread-safe client for the checker service that is a
drop-in substitute for :class:`~repro.distributed.store.InMemoryStore`
wherever the delta protocol's surface is consumed — a
:class:`~repro.distributed.site.Site`'s publisher and checker loops, a
bare :class:`~repro.distributed.delta.DeltaPublisher`, or a
:class:`~repro.distributed.detector.DistributedChecker` — so the same
code runs in-process and across the wire.

**Error fidelity** is the load-bearing property:

* a server-side :class:`~repro.distributed.delta.DeltaSequenceError`
  crosses the wire as a typed error and re-raises as
  ``DeltaSequenceError`` here — publisher gap recovery (forced
  checkpoint) and checker resync (``get_state``) work unchanged;
* a server-side :class:`~repro.distributed.store.StoreUnavailableError`
  (injected outage, every replica down) re-raises as itself — the
  site loops' skip-the-round tolerance works unchanged;
* *transport* failures (refused/reset connections, read timeouts) are
  retried with bounded exponential backoff on a fresh connection, and
  surface as ``StoreUnavailableError`` once retries are exhausted —
  to a site, an unreachable service *is* an unavailable store.

Retrying an ``append_delta`` whose first attempt died mid-flight is
safe by protocol construction: if the server applied it before the
connection broke, the retry fails to extend the tail, raises
``DeltaSequenceError``, and the publisher heals with a checkpoint —
the same path every other history divergence takes.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.distributed.net.framing import FrameDecoder, FrameError, encode_frame
from repro.distributed.net.service import DEFAULT_TENANT, WIRE_ERRORS
from repro.distributed.store import StoreUnavailableError

log = logging.getLogger(__name__)

__all__ = ["RemoteStore", "RemoteProtocolError"]


class RemoteProtocolError(RuntimeError):
    """The service answered outside the protocol (unknown op, internal
    server failure, malformed response) — a bug, not a fault to retry."""


class RemoteStore:
    """A tenant-scoped store client speaking the checker-service protocol.

    Parameters
    ----------
    host, port:
        The service's TCP endpoint.
    tenant:
        Namespace every operation is scoped to.
    connect_timeout_s / timeout_s:
        Socket connect and per-request read deadlines.
    retries / backoff_s:
        Transport-failure policy: up to ``retries`` re-attempts after
        the first failure, sleeping ``backoff_s * 2**attempt`` between
        attempts, each on a fresh connection.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9555,
        tenant: str = DEFAULT_TENANT,
        connect_timeout_s: float = 5.0,
        timeout_s: float = 10.0,
        retries: int = 3,
        backoff_s: float = 0.05,
        name: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.tenant = str(tenant)
        self.connect_timeout_s = connect_timeout_s
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.name = name or f"remote:{self.tenant}@{host}:{port}"
        #: Transport attempts that failed and were retried (observable
        #: robustness accounting, mirroring Site.publish_failures).
        self.transport_failures = 0
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._lock = threading.Lock()

    # -- connection management -----------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        sock.settimeout(self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        # The next connection starts at a frame boundary: what a cut
        # response left behind must not prefix its first answer.
        self._decoder = FrameDecoder()

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "RemoteStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request pump ----------------------------------------------
    def _request(self, op: str, **args):
        request = {"op": op, "tenant": self.tenant}
        request.update(args)
        last_error: Optional[Exception] = None
        with self._lock:
            for attempt in range(self.retries + 1):
                if attempt:
                    self.transport_failures += 1
                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    response = self._exchange(encode_frame(request))
                except (OSError, FrameError) as exc:
                    # Transport trouble: the connection is in an unknown
                    # state — drop it and retry on a fresh one.
                    self._drop_connection()
                    last_error = exc
                    continue
                return self._unwrap(response)
        raise StoreUnavailableError(
            f"{self.name}: service unreachable after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )

    def _exchange(self, frame: bytes):
        """One request frame out, exactly one response message back."""
        sock, decoder = self._sock, self._decoder
        sock.sendall(frame)
        responses = []
        while not responses:
            chunk = sock.recv(65536)
            if not chunk:
                raise FrameError(
                    "service closed the connection"
                    + (" mid-frame" if decoder.pending else "")
                )
            responses = decoder.feed(chunk)
        if len(responses) > 1 or decoder.pending:
            raise FrameError("service answered one request more than once")
        return responses[0]

    def _unwrap(self, response):
        if not isinstance(response, dict) or "ok" not in response:
            raise RemoteProtocolError(
                f"{self.name}: malformed response {response!r}"
            )
        if response["ok"]:
            return response.get("value")
        kind = response.get("error")
        message = response.get("message", "")
        exc_type = WIRE_ERRORS.get(kind)
        if exc_type is not None:
            raise exc_type(message)
        raise RemoteProtocolError(f"{self.name}: [{kind}] {message}")

    # -- the five-method store surface ---------------------------------
    def append_delta(self, site_id: str, obj) -> None:
        self._request("append_delta", site=str(site_id), obj=dict(obj))

    def get_deltas(
        self, site_id: str, after_seq: int, stream: Optional[str] = None
    ) -> List[dict]:
        return self._request(
            "get_deltas", site=str(site_id),
            after_seq=int(after_seq), stream=stream,
        )

    def get_state(self, site_id: str) -> Tuple[str, int, Dict[str, dict]]:
        stream, seq, state = self._request("get_state", site=str(site_id))
        return stream, seq, state

    def delta_tail(self, site_id: str) -> Optional[Tuple[str, int]]:
        tail = self._request("delta_tail", site=str(site_id))
        return None if tail is None else (tail[0], tail[1])

    def delta_sites(self) -> List[str]:
        return self._request("delta_sites")

    def delete(self, site_id: str) -> None:
        self._request("delete", site=str(site_id))

    # -- service operations beyond the store surface -------------------
    def _decode_reports(self, objs) -> list:
        from repro.trace.events import TraceFormatError, report_from_obj

        try:
            return [report_from_obj(obj) for obj in objs]
        except (TraceFormatError, TypeError) as exc:
            raise RemoteProtocolError(
                f"{self.name}: malformed report answer: {exc}"
            ) from exc

    def check(self):
        """Ask the service for one detection pass over this tenant;
        returns the decoded :class:`DeadlockReport` or ``None``."""
        obj = self._request("check")
        return None if obj is None else self._decode_reports([obj])[0]

    def reports(self) -> list:
        """The tenant's distinct service-side reports, decoded."""
        return self._decode_reports(self._request("reports"))

    def health(self) -> dict:
        """This tenant's health document."""
        return self._request("health")

    def ping(self) -> dict:
        return self._request("ping")
