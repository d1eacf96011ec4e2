"""The telemetry endpoint, exercised over real HTTP.

Spins up :class:`~repro.obs.server.MetricsHTTPServer` on an ephemeral
port with the demo deadlock scenario behind it — the acceptance path of
``python -m repro.obs serve`` — and scrapes ``/metrics`` and
``/healthz`` with a plain urllib client.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.export import parse_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.server import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsHTTPServer,
    build_demo_runtime,
    shutdown_demo,
)


def fetch(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), exc.read()


@pytest.fixture(scope="module")
def live_endpoint():
    """One deadlocked demo runtime served over HTTP for the module."""
    registry = MetricsRegistry()
    runtime, tasks = build_demo_runtime(registry, n_tasks=3, interval_s=0.02)
    deadline = time.monotonic() + 10
    while not runtime.reports and time.monotonic() < deadline:
        time.sleep(0.01)
    assert runtime.reports, "demo ring never deadlocked"
    with MetricsHTTPServer(registry, runtime, port=0) as server:
        yield server
    shutdown_demo(runtime, tasks)


class TestMetricsEndpoint:
    def test_prometheus_content_type(self, live_endpoint):
        status, ctype, _ = fetch(live_endpoint.url + "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE

    def test_exposition_parses_and_carries_runtime_series(self, live_endpoint):
        _, _, body = fetch(live_endpoint.url + "/metrics")
        families = parse_prometheus(body.decode("utf-8"))
        blocked = families["repro_blocked_tasks"]
        assert blocked["type"] == "gauge"
        assert blocked["samples"][("repro_blocked_tasks", ())] == 3
        checks = families["repro_checks_total"]
        assert sum(checks["samples"].values()) >= 1
        reports = families["repro_deadlock_reports_total"]
        key = ("repro_deadlock_reports_total", (("origin", "detection"),))
        assert reports["samples"][key] >= 1

    def test_check_latency_histogram_present(self, live_endpoint):
        _, _, body = fetch(live_endpoint.url + "/metrics")
        families = parse_prometheus(body.decode("utf-8"))
        latency = families["repro_check_duration_seconds"]
        assert latency["type"] == "histogram"
        count_key = ("repro_check_duration_seconds_count", ())
        assert latency["samples"][count_key] >= 1


class TestHealthEndpoint:
    def test_deadlocked_runtime_reports_503(self, live_endpoint):
        status, ctype, body = fetch(live_endpoint.url + "/healthz")
        assert status == 503
        assert ctype.startswith("application/json")
        doc = json.loads(body)
        assert doc["status"] == "deadlock"
        assert doc["mode"] == "detection"
        assert doc["blocked_tasks"] == 3
        assert doc["reports"] and doc["reports"][0]["tasks"]

    def test_a_standing_deadlock_is_filed_once(self, live_endpoint):
        """The monitor keeps finding the un-cancelled cycle at every
        poll but files it once: neither the runtime's reports nor the
        document grow with uptime."""
        runtime = live_endpoint.runtime
        polls = runtime.monitor._m_polls
        start = polls.value()
        deadline = time.monotonic() + 10
        while polls.value() < start + 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert polls.value() >= start + 5
        assert len(runtime.reports) == 1
        _, _, body = fetch(live_endpoint.url + "/healthz")
        doc = json.loads(body)
        assert len(doc["reports"]) == 1
        assert doc["report_count"] == 1

    def test_index_and_404(self, live_endpoint):
        status, _, body = fetch(live_endpoint.url + "/")
        assert status == 200 and b"/metrics" in body
        status, _, _ = fetch(live_endpoint.url + "/nope")
        assert status == 404


class TestHealthyServer:
    def test_registry_only_server_is_ok(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total").inc()
        with MetricsHTTPServer(registry, runtime=None, port=0) as server:
            status, _, body = fetch(server.url + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, _, body = fetch(server.url + "/metrics")
            assert status == 200
            assert "repro_demo_total 1" in body.decode("utf-8")


class TestSpansEndpoint:
    def test_spans_serve_chrome_trace_json(self):
        from repro.obs.tracing import Tracer, validate_chrome_trace

        registry = MetricsRegistry()
        tracer = Tracer()
        tracer.begin("task.blocked", "task:t1", key="t1")
        tracer.end("t1")
        with MetricsHTTPServer(
            registry, runtime=None, port=0, tracer=tracer
        ) as server:
            status, ctype, body = fetch(server.url + "/spans")
            assert status == 200
            assert ctype.startswith("application/json")
            doc = json.loads(body)
            validate_chrome_trace(doc)
            names = {e["name"] for e in doc["traceEvents"]}
            assert "task.blocked" in names
            status, _, index = fetch(server.url + "/")
            assert status == 200 and b"/spans" in index

    def test_spans_without_tracer_serves_empty_doc(self):
        from repro.obs.tracing import validate_chrome_trace

        registry = MetricsRegistry()
        with MetricsHTTPServer(registry, runtime=None, port=0) as server:
            status, _, body = fetch(server.url + "/spans")
            assert status == 200
            doc = json.loads(body)
            validate_chrome_trace(doc)


class TestServeRestart:
    """Regression: a restarted serve on the same port must bind cleanly.

    Without SO_REUSEADDR + clean shutdown the second cycle dies with
    EADDRINUSE while the first socket sits in TIME_WAIT."""

    def test_back_to_back_serve_cycles_on_one_port(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total").inc()
        # Let the OS pick a free port, then reuse that exact port for
        # every subsequent cycle — the restart scenario.
        probe = MetricsHTTPServer(registry, runtime=None, port=0)
        port = probe.server_address[1]
        probe.start()
        status, _, _ = fetch(probe.url + "/metrics")
        assert status == 200
        probe.stop()
        for _ in range(3):
            server = MetricsHTTPServer(registry, runtime=None, port=port)
            server.start()
            try:
                status, _, body = fetch(server.url + "/metrics")
                assert status == 200
                assert "repro_demo_total 1" in body.decode("utf-8")
            finally:
                server.stop()

    def test_stop_is_idempotent(self):
        registry = MetricsRegistry()
        server = MetricsHTTPServer(registry, runtime=None, port=0)
        server.start()
        server.stop()
        server.stop()  # second call must be a no-op, not a hang/raise

    def test_stop_without_start(self):
        registry = MetricsRegistry()
        server = MetricsHTTPServer(registry, runtime=None, port=0)
        server.stop()  # never served: still closes the socket cleanly


class TestShutdownVisibility:
    """Regressions for the shutdown/liveness sweep: ``shutdown_demo``
    reports a clean/dirty flag instead of swallowing everything, and a
    ring worker whose start gate never opens fails loudly."""

    def test_clean_shutdown_returns_true(self):
        registry = MetricsRegistry()
        runtime, tasks = build_demo_runtime(
            registry, n_tasks=2, interval_s=0.02
        )
        deadline = time.monotonic() + 10
        while not runtime.reports and time.monotonic() < deadline:
            time.sleep(0.01)
        assert runtime.reports
        assert shutdown_demo(runtime, tasks) is True

    def test_wedged_task_makes_shutdown_dirty(self):
        import threading

        registry = MetricsRegistry()
        runtime, tasks = build_demo_runtime(
            registry, n_tasks=2, interval_s=0.02
        )
        release = threading.Event()
        wedged = runtime.spawn(release.wait, name="wedged")
        try:
            deadline = time.monotonic() + 10
            while not runtime.reports and time.monotonic() < deadline:
                time.sleep(0.01)
            # The wedged extra task ignores cancellation: the join times
            # out, and the dirty flag says so instead of silence.
            assert shutdown_demo(
                runtime, tasks + [wedged], join_timeout_s=0.1
            ) is False
        finally:
            release.set()
            wedged.join(5)

    def test_failed_task_makes_shutdown_dirty(self):
        registry = MetricsRegistry()
        runtime, tasks = build_demo_runtime(
            registry, n_tasks=2, interval_s=0.02
        )

        def boom():
            raise RuntimeError("synthetic demo-task failure")

        failed = runtime.spawn(boom, name="failing")
        deadline = time.monotonic() + 10
        while not runtime.reports and time.monotonic() < deadline:
            time.sleep(0.01)
        assert shutdown_demo(runtime, tasks + [failed]) is False

    def test_ring_worker_fails_loudly_when_gate_never_opens(self, monkeypatch):
        """A timed-out start gate must fail the task (visible through
        join and the dirty shutdown flag), not silently run a different
        scenario."""
        import threading
        from types import SimpleNamespace

        from repro.obs import server as server_mod
        from repro.runtime.tasks import TaskFailedError

        class NeverOpeningGate(threading.Event):
            def set(self):  # the scenario's gate.set() is lost
                pass

        monkeypatch.setattr(server_mod, "DEMO_GATE_TIMEOUT_S", 0.05)
        monkeypatch.setattr(
            server_mod, "threading",
            SimpleNamespace(Event=NeverOpeningGate),
        )
        registry = MetricsRegistry()
        runtime, tasks = build_demo_runtime(
            registry, n_tasks=2, interval_s=0.02
        )
        with pytest.raises(TaskFailedError, match="start gate"):
            for task in tasks:
                task.join(10)
        assert shutdown_demo(runtime, tasks) is False


class TestConcurrentScrapes:
    def test_parallel_metrics_and_healthz_under_mutation(self, live_endpoint):
        """Several scrapers hitting both routes while the demo runtime
        keeps mutating the registry: every response parses."""
        import concurrent.futures

        def scrape(i: int):
            route = "/metrics" if i % 2 == 0 else "/healthz"
            status, _, body = fetch(live_endpoint.url + route)
            if route == "/metrics":
                assert status == 200
                parse_prometheus(body.decode("utf-8"))
            else:
                assert status in (200, 503)
                json.loads(body)
            return status

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            statuses = list(pool.map(scrape, range(32)))
        assert len(statuses) == 32
