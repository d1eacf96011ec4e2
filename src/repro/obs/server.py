"""One-file HTTP telemetry endpoint: ``/metrics``, ``/healthz``, ``/spans``.

This is the piece a future network-native checker service scrapes —
and, until that service exists, the way to watch a live verifier from
a browser or a Prometheus.  :class:`MetricsHTTPServer` wraps a
:class:`~repro.obs.registry.MetricsRegistry` (and optionally a live
:class:`~repro.runtime.verifier.ArmusRuntime` and a
:class:`~repro.obs.tracing.Tracer`) behind three routes:

* ``GET /metrics`` — Prometheus text exposition of the registry;
* ``GET /healthz`` — the structured health JSON of the runtime
  (``503`` once a deadlock report exists, so liveness probes trip);
* ``GET /spans`` — the tracer's span buffer as Chrome trace-event JSON
  (save it, load it in Perfetto or ``about:tracing``).

:func:`build_demo_runtime` supplies the live *deadlocking* scenario
``python -m repro.obs serve`` runs by default: ``n`` tasks in a phaser
ring (task *i* registered with phasers *i* and *i+1 mod n*, arriving
only at its own) — the n-way generalisation of the trace CLI's
"crossed" scenario, guaranteed to deadlock, detected by the periodic
monitor while the endpoint serves scrapes.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional

from repro.obs.export import to_prometheus
from repro.obs.health import runtime_health
from repro.obs.registry import MetricsRegistry

log = logging.getLogger(__name__)

__all__ = ["MetricsHTTPServer", "build_demo_runtime", "ring_scenario"]

#: Content type Prometheus expects from a text-format scrape target.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How long a demo ring worker waits for the start gate before failing
#: loudly (module-level so the regression test can shrink it).
DEMO_GATE_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# live demo scenario
# ---------------------------------------------------------------------------
def ring_scenario(runtime, n_tasks: int = 3) -> List[object]:
    """Spawn ``n_tasks`` tasks in a phaser ring deadlock.

    Task *i* is registered with phaser *i* (its own) and phaser
    *i+1 mod n* (its successor's), but only ever arrives at its own —
    so every phaser waits forever on its predecessor task, a cycle of
    length ``n``.  ``n_tasks=2`` is exactly the "crossed" scenario of
    ``python -m repro.trace record``.
    """
    if n_tasks < 2:
        raise ValueError("a ring deadlock needs at least 2 tasks")
    from repro.core.report import DeadlockError
    from repro.runtime.phaser import Phaser

    phasers = [
        Phaser(runtime, register_self=False, name=f"ring{i}")
        for i in range(n_tasks)
    ]
    gate = threading.Event()

    def worker(i: int):
        def run() -> None:
            # A timed-out gate means the demo never actually started its
            # ring: proceeding would silently run a different scenario,
            # so fail the task loudly instead (join() surfaces it).
            if not gate.wait(DEMO_GATE_TIMEOUT_S):
                raise RuntimeError(
                    f"ring-t{i}: start gate not released within "
                    f"{DEMO_GATE_TIMEOUT_S}s"
                )
            try:
                phasers[i].arrive_and_await_advance()
            except DeadlockError:
                pass

        return run

    tasks = [
        runtime.spawn(
            worker(i),
            register=[phasers[i], phasers[(i + 1) % n_tasks]],
            name=f"ring-t{i}",
        )
        for i in range(n_tasks)
    ]
    gate.set()
    return tasks


SCENARIOS = {"ring": ring_scenario}


def build_demo_runtime(
    metrics: MetricsRegistry,
    scenario: str = "ring",
    n_tasks: int = 3,
    interval_s: float = 0.05,
    cancel_on_detect: bool = False,
    tracer=None,
):
    """A started detection-mode runtime running ``scenario`` live.

    ``cancel_on_detect`` defaults off so the blocked population stays
    visible on the gauge after the report lands (the tasks park in
    their waits; :func:`shutdown_demo` cancels them at exit).
    """
    from repro.runtime.verifier import ArmusRuntime, VerificationMode

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r} (have: {sorted(SCENARIOS)})")
    runtime = ArmusRuntime(
        mode=VerificationMode.DETECTION,
        interval_s=interval_s,
        cancel_on_detect=cancel_on_detect,
        metrics=metrics,
        tracer=tracer,
    ).start()
    tasks = SCENARIOS[scenario](runtime, n_tasks)
    return runtime, tasks


def shutdown_demo(runtime, tasks, join_timeout_s: float = 5.0) -> bool:
    """Cancel the parked demo tasks and stop the runtime.

    Returns ``True`` when every task wound down (normally, cancelled,
    or by its deadlock error) and the runtime stopped.  A task that is
    still running after the join, or that died of an unexpected error,
    makes the shutdown *dirty*: it is logged and ``False`` is returned —
    never silently swallowed, so a wedged demo is observable to the
    caller (the CLI and the tests check the flag).
    """
    from repro.core.report import DeadlockError
    from repro.runtime.tasks import TaskFailedError

    clean = True
    for report in list(runtime.reports):
        for task_id in report.tasks:
            task = runtime.task_by_id(task_id)
            if task is not None:
                task.cancel(report)
    for task in tasks:
        try:
            task.join(join_timeout_s)
        except DeadlockError:
            pass  # the expected outcome of a cancelled deadlocked task
        except TimeoutError:
            log.warning("demo task %r still running after cancel + join", task)
            clean = False
        except TaskFailedError as exc:
            log.warning("demo task %r failed during shutdown: %s", task, exc)
            clean = False
    runtime.stop()
    return clean


# ---------------------------------------------------------------------------
# the HTTP server
# ---------------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    server: "MetricsHTTPServer"

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _query_tenant(self, query: str) -> Optional[str]:
        values = urllib.parse.parse_qs(query).get("tenant", [])
        return values[0] if values else None

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, _, query = self.path.partition("?")
        if path == "/metrics":
            self._send(
                200, PROMETHEUS_CONTENT_TYPE,
                to_prometheus(self.server.registry),
            )
        elif path == "/healthz":
            service = self.server.service
            runtime = self.server.runtime
            if service is not None:
                # A checker service: aggregate health, or one tenant's
                # slice via ?tenant=NAME (unknown tenants 404).
                try:
                    doc = service.health_doc(self._query_tenant(query))
                except KeyError:
                    self._send(404, "text/plain; charset=utf-8",
                               "unknown tenant\n")
                    return
                status = 200 if doc["status"] == "ok" else 503
            elif runtime is None:
                doc = {"status": "ok", "mode": "none",
                       "instruments": len(self.server.registry.names())}
                status = 200
            else:
                doc = runtime_health(runtime, self.server.registry)
                status = 200 if doc["status"] == "ok" else 503
            self._send(
                status, "application/json",
                json.dumps(doc, sort_keys=True) + "\n",
            )
        elif path == "/spans":
            from repro.obs.tracing import NULL_TRACER, render_chrome_json

            tracer = None
            if self.server.service is not None:
                tracer = self.server.service.tracer_for(
                    self._query_tenant(query)
                )
            if tracer is None:
                tracer = self.server.tracer
            if tracer is None:
                tracer = NULL_TRACER
            self._send(
                200, "application/json",
                render_chrome_json(tracer.to_chrome()),
            )
        elif path == "/":
            self._send(
                200, "text/plain; charset=utf-8",
                "repro.obs telemetry endpoint\n"
                "  GET /metrics  Prometheus text exposition\n"
                "  GET /healthz  runtime health JSON (?tenant=NAME scopes "
                "a checker service)\n"
                "  GET /spans    span buffer as Chrome trace-event JSON\n",
            )
        else:
            self._send(404, "text/plain; charset=utf-8", "not found\n")

    def log_message(self, fmt: str, *args) -> None:
        if self.server.verbose:  # default: scrape traffic stays quiet
            super().log_message(fmt, *args)


class MetricsHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to a registry (+ optional runtime
    and tracer).

    Use as a context manager, or call :meth:`start` / :meth:`stop`
    explicitly::

        with MetricsHTTPServer(registry, runtime, port=0) as srv:
            print(srv.url)          # http://127.0.0.1:<chosen port>
            ...                     # serving in a daemon thread
    """

    daemon_threads = True
    # Rebind the port immediately after a previous server's shutdown:
    # without SO_REUSEADDR a restarted `serve` on the same port fails
    # with EADDRINUSE while the old socket sits in TIME_WAIT.  HTTPServer
    # sets this today, but the restart story must not hinge on that
    # default, so state it explicitly.
    allow_reuse_address = True

    def __init__(
        self,
        registry: MetricsRegistry,
        runtime=None,
        host: str = "127.0.0.1",
        port: int = 9464,
        verbose: bool = False,
        tracer=None,
        service=None,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.registry = registry
        self.runtime = runtime
        self.tracer = tracer
        # A multi-tenant checker service (duck-typed: ``health_doc`` +
        # ``tracer_for``).  When present it owns /healthz and /spans,
        # giving both routes per-tenant views via ?tenant=NAME.
        self.service = service
        self.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MetricsHTTPServer":
        """Serve forever in a daemon thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="obs-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Clean shutdown: stop serving, close the listening socket,
        join the serving thread.  Idempotent — safe to call twice — and
        leaves the port immediately rebindable (paired with
        ``allow_reuse_address`` above), so back-to-back serve cycles on
        one port never race the previous socket's teardown."""
        if self._thread is not None:
            self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(5)
            self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
