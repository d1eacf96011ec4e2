"""The checker service: core dispatch, tenancy, periodic detection,
service-side provenance, obs-endpoint integration, and lifecycle.

The transport-free :class:`CheckerServiceCore` is unit-tested directly
(requests in, responses out); the socket-level behaviours ride the
fixtures from ``conftest.py``.
"""

from __future__ import annotations

import gc
import json
import logging
import socket
import struct
import time
import urllib.error
import urllib.request

import pytest

from repro.core.events import waiting_on
from repro.distributed.delta import DeltaPublisher, encode_bucket, make_snapshot
from repro.distributed.net import CheckerService, RemoteStore
from repro.distributed.net.framing import (
    ACK,
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
)
from repro.distributed.net.service import CheckerServiceCore
from repro.obs.registry import MetricsRegistry
from repro.trace.events import report_from_obj


def publish(store, site, statuses, publisher=None):
    publisher = publisher or DeltaPublisher(site)
    obj = publisher.prepare(encode_bucket(statuses))
    if obj is not None:
        store.append_delta(site, obj)
        publisher.commit(obj)
    return publisher


def crossed_knot():
    return (
        {"a": waiting_on("p", 1, p=1, q=0)},
        {"b": waiting_on("q", 1, q=1, p=0)},
    )


def fetch(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestCoreDispatch:
    def test_non_object_request_refused(self):
        core = CheckerServiceCore()
        response = core.handle(["not", "an", "object"])
        assert response["ok"] is False and response["error"] == "protocol"

    def test_unknown_op_refused(self):
        core = CheckerServiceCore()
        response = core.handle({"op": "frobnicate"})
        assert response["ok"] is False and response["error"] == "protocol"

    @pytest.mark.parametrize("op", [[], {}, ["ping"], None, 7, True])
    def test_non_string_op_is_answered_and_counted_nowhere(self, op):
        registry = MetricsRegistry()
        core = CheckerServiceCore(metrics=registry)
        response = core.handle({"op": op})
        assert response["ok"] is False and response["error"] == "protocol"
        assert core._m_requests.total() == 0
        assert core._m_errors.total() == 0

    @pytest.mark.parametrize("obj", [
        [1, 2], "delta", 7, None,
        {"kind": "snapshot", "stream": "S", "seq": 1,
         "clear": [], "set": {"t": {"waits": [], "registered": []}}},
    ], ids=["list", "string", "number", "null", "registered-not-an-object"])
    def test_non_object_delta_is_a_value_error_nobody_logs(self, obj, caplog):
        core = CheckerServiceCore()
        response = core.handle({"op": "append_delta", "site": "s0", "obj": obj})
        assert response["ok"] is False and response["error"] == "value"
        assert "TraceFormatError" in response["message"]
        assert not caplog.records
        # Rejected at the door: the store and the origins never saw it.
        tenant = core.tenant("default")
        assert tenant.delta_sites() == [] and tenant._ordinal == 0

    @pytest.mark.parametrize("kind,members", [
        ("snapshot", {"seq": True}),
        ("delta", {"seq": 2.5}),
        ("delta", {"seq": "2"}),
        ("snapshot", {"seq": 2, "stream": ["x"]}),
        ("snapshot", {"seq": 2, "stream": 7}),
        ("delta", {"seq": 2, "v": 2.9}),
        ("delta", {"seq": 2, "v": True}),
        ("delta", {"seq": 2, "clear": ["t", 1]}),
        ("delta", {"seq": 2, "set": {"t": {
            "waits": [["p", 1]], "registered": {"p": "1"}}}}),
    ], ids=["seq-true", "seq-fraction", "seq-string", "stream-list",
            "stream-number", "v-fraction", "v-true", "clear-number",
            "registered-phase-string"])
    def test_a_mistyped_delta_value_is_refused_not_coerced(self, kind, members):
        """Each of these converts to a valid next append (``True`` to 1,
        2.5 to 2, ``["x"]`` to a stream ``"['x']"``, ``1`` to a task
        ``"1"``, a registered phase ``"1"`` to 1); the door refuses it
        instead, and the store keeps the state it had."""
        core = CheckerServiceCore()
        core.handle({"op": "append_delta", "site": "s0",
                     "obj": make_snapshot(1, {}, "S")})
        obj = {"v": 3, "stream": "S", "kind": kind,
               "set": {}, "clear": [], **members}
        response = core.handle({"op": "append_delta", "site": "s0", "obj": obj})
        assert response["ok"] is False and response["error"] == "value"
        assert "TraceFormatError" in response["message"]
        tenant = core.tenant("default")
        assert tenant.delta_tail("s0") == ("S", 1) and tenant._ordinal == 1

    def test_operations_that_answer_nothing_share_one_ack(self):
        core = CheckerServiceCore()
        first = core.handle({"op": "append_delta", "site": "s0",
                             "obj": make_snapshot(1, {}, "S")})
        assert first is ACK and first == {"ok": True, "value": None}
        assert core.handle({"op": "check"}) is ACK
        assert core.handle({"op": "delta_tail", "site": "ghost"}) is ACK
        assert core.handle({"op": "delete", "site": "s0"}) is ACK

    def test_request_series_appear_with_their_first_request(self):
        registry = MetricsRegistry()
        core = CheckerServiceCore(metrics=registry)
        assert core._m_requests.per_label() == {}
        core.handle({"op": "ping"})
        core.handle({"op": "ping"})
        core.handle({"op": "delta_sites"})
        assert core._m_requests.per_label() == {
            ("delta_sites",): 1, ("ping",): 2,
        }

    def test_missing_argument_is_a_value_error(self):
        core = CheckerServiceCore()
        response = core.handle({"op": "get_state"})  # no "site"
        assert response["ok"] is False and response["error"] == "value"

    def test_ping_lists_tenants(self):
        core = CheckerServiceCore()
        core.handle({"op": "append_delta", "tenant": "acme", "site": "s0",
                     "obj": make_snapshot(1, {}, "S")})
        response = core.handle({"op": "ping"})
        assert response["ok"] and response["value"]["tenants"] == ["acme"]

    def test_request_and_error_counters(self):
        registry = MetricsRegistry()
        core = CheckerServiceCore(metrics=registry)
        core.handle({"op": "ping"})
        core.handle({"op": "get_state"})  # missing "site" -> value error
        core.handle({"op": "get_state", "site": "ghost"})  # no stream
        assert core._m_requests.value(op="ping") == 1
        assert core._m_errors.value(error="value") == 1
        assert core._m_errors.value(error="sequence") == 1

    def test_check_finds_cross_site_cycle_with_provenance(self):
        core = CheckerServiceCore()
        a, b = crossed_knot()
        tenant = core.tenant("default")
        publish(tenant, "s0", a)
        publish(tenant, "s1", b)
        response = core.handle({"op": "check"})
        assert response["ok"]
        obj = response["value"]
        assert set(obj["tasks"]) == {"a", "b"}
        # Service-side provenance: every cycle edge carries the live
        # wire deltas (site, stream, seq) that produced its endpoints.
        report = report_from_obj(obj)
        assert report.provenance
        for edge in report.provenance:
            for origin in (edge.source_origin, edge.target_origin):
                assert origin.kind == "publish_delta"
                assert origin.site in {"s0", "s1"}
                assert origin.seq >= 1 and origin.stream
        sites = {e.source_origin.site for e in report.provenance}
        assert sites == {"s0", "s1"}
        # ... interned on the wire: two publishes, two origin objects.
        assert len(obj["provenance"]["origins"]) == 2

    def test_reports_deduplicate_per_cycle(self):
        core = CheckerServiceCore()
        tenant = core.tenant("default")
        a, b = crossed_knot()
        publish(tenant, "s0", a)
        publish(tenant, "s1", b)
        assert core.handle({"op": "check"})["value"] is not None
        assert core.handle({"op": "check"})["value"] is not None  # re-answered
        reports = core.handle({"op": "reports"})["value"]
        assert len(reports) == 1  # ... but logged once

    def test_report_log_keeps_the_newest_distinct_cycles(self):
        """What a tenant publishes decides how many distinct cycles it
        files; the log and its dedup set stay bounded regardless."""
        from repro.distributed.net.service import MAX_TENANT_REPORTS

        registry = MetricsRegistry()
        core = CheckerServiceCore(metrics=registry)
        tenant = core.tenant("noisy")
        publisher = DeltaPublisher("s0")

        def knot(n):
            # Its own phasers: under SG a cycle is named by its events.
            p, q = f"p{n}", f"q{n}"
            return {f"a{n}": waiting_on(p, 1, **{p: 1, q: 0}),
                    f"b{n}": waiting_on(q, 1, **{q: 1, p: 0})}

        for n in range(300):
            publish(tenant, "s0", knot(n), publisher)
            assert set(tenant.check().tasks) == {f"a{n}", f"b{n}"}
        evicted = registry.get("repro_net_reports_evicted_total")
        assert len(tenant.reports) == MAX_TENANT_REPORTS == 256
        assert len(tenant._seen_cycles) == 256
        assert set(tenant.reports[0].tasks) == {"a44", "b44"}
        assert set(tenant.reports[-1].tasks) == {"a299", "b299"}
        assert evicted.value(tenant="noisy") == 44
        assert tenant.health_doc()["report_count"] == 300
        # An evicted cycle is news again.
        publish(tenant, "s0", knot(0), publisher)
        tenant.check()
        assert set(tenant.reports[-1].tasks) == {"a0", "b0"}
        assert len(tenant.reports) == 256
        assert evicted.value(tenant="noisy") == 45

    def test_bystanders_do_not_multiply_the_report(self):
        """One deadlock, one report: tasks piling onto a persisting knot
        grow an SG report's task set but not its cycle, and the service
        files exactly what a replay of the same deltas files."""
        from repro.trace.events import Trace, TraceHeader, publish_delta
        from repro.trace.replay import replay

        core = CheckerServiceCore()
        tenant = core.tenant("default")
        a, b = crossed_knot()
        statuses = {**a, **b}
        publisher = DeltaPublisher("s0")
        records, cycles = [], set()
        for n in range(4):
            obj = publisher.prepare(encode_bucket(statuses))
            tenant.append_delta("s0", obj)
            publisher.commit(obj)
            records.append(publish_delta(n, "s0", obj))
            answer = core.handle({"op": "check"})["value"]
            cycles.add(json.dumps(answer["cycle"]))
            assert len(answer["tasks"]) == 2 + n  # the bystanders are named
            statuses[f"w{n}"] = waiting_on("p", 1, w=0)
        assert len(cycles) == 1  # ... around one unchanged cycle
        replayed = replay(Trace(TraceHeader(meta={}), tuple(records)))
        assert len(replayed.reports) == 1
        assert len(core.handle({"op": "reports"})["value"]) == 1
        health = core.handle({"op": "health"})["value"]
        assert health["tenants"]["default"]["report_count"] == 1

    def test_stable_deadlock_is_not_reattributed(self, monkeypatch):
        from repro.obs import tracing

        calls = []
        real = tracing._attribute
        monkeypatch.setattr(
            tracing, "_attribute",
            lambda *args: calls.append(args[0]) or real(*args),
        )
        core = CheckerServiceCore()
        tenant = core.tenant("default")
        a, b = crossed_knot()
        publish(tenant, "s0", a)
        pub = publish(tenant, "s1", b)
        first = core.handle({"op": "check"})["value"]
        assert len(calls) == 2  # one per cycle vertex
        second = core.handle({"op": "check"})["value"]
        assert second is first and len(calls) == 2
        assert tenant.check() == report_from_obj(first) and len(calls) == 2
        # A checkpoint re-publish leaves the graph (and the checker's
        # report object) alone but moves b's origin to the new seq.
        checkpoint = pub.prepare_checkpoint(encode_bucket(b))
        tenant.append_delta("s1", checkpoint)
        third = report_from_obj(core.handle({"op": "check"})["value"])
        origins = {
            (o.site, o.stream, o.seq) for e in third.provenance
            for o in (e.source_origin, e.target_origin)
        }
        assert ("s1", pub.stream, checkpoint["seq"]) in origins
        assert ("s1", pub.stream, 1) not in origins
        assert third.detected_at == 3
        assert len(core.handle({"op": "reports"})["value"]) == 1

    def test_delete_forgets_the_sites_origins(self):
        tenant = CheckerServiceCore().tenant("default")
        tracker = tenant._origins
        for round_ in range(100):
            site = f"s{round_}"
            publish(tenant, site, {f"t{round_}": waiting_on("p", 1, p=1)})
            assert len(tracker.origins) == len(tracker.walls) == 1
            tenant.delete(site)
        assert tenant.delta_sites() == []
        assert tracker.origins == {} and tracker.walls == {}
        assert tracker._site_tasks == {}

    def test_health_aggregate_and_per_tenant(self):
        core = CheckerServiceCore()
        a, b = crossed_knot()
        calm = core.tenant("calm")
        publish(calm, "s0", {"t": waiting_on("p", 1, p=1)})
        stuck = core.tenant("stuck")
        publish(stuck, "s0", a)
        publish(stuck, "s1", b)
        stuck.check()
        doc = core.health_doc()
        assert doc["status"] == "deadlock"
        assert doc["mode"] == "checker-service"
        assert doc["tenant_count"] == 2
        assert doc["deadlocked_tenants"] == ["stuck"]
        assert doc["tenants"]["calm"]["status"] == "ok"
        one = core.health_doc("stuck")
        assert one["status"] == "deadlock"
        assert one["sites"] == ["s0", "s1"]
        assert one["report_count"] == 1
        with pytest.raises(KeyError):
            core.health_doc("nobody")

    @pytest.mark.parametrize("metrics_on", [False, True])
    def test_per_tenant_health_reports_its_own_passes(self, metrics_on):
        """A tenant's ``checks``/``cycles_found`` are the passes *it*
        ran, whether or not the tenants share an enabled registry."""
        metrics = MetricsRegistry() if metrics_on else None
        core = CheckerServiceCore(metrics=metrics)
        a, b = crossed_knot()
        noisy = core.tenant("noisy")
        publish(noisy, "s0", a)
        publish(noisy, "s1", b)
        for _ in range(5):
            assert noisy.check() is not None
        assert core.tenant("quiet").check() is None
        quiet_doc = core.health_doc("quiet")
        assert (quiet_doc["checks"], quiet_doc["cycles_found"]) == (1, 0)
        assert quiet_doc["status"] == "ok"
        noisy_doc = core.health_doc("noisy")
        assert (noisy_doc["checks"], noisy_doc["cycles_found"]) == (5, 5)
        assert core.health_doc()["deadlocked_tenants"] == ["noisy"]
        if metrics is not None:  # the shared series stay service-wide
            assert metrics.get("repro_checks_total").total() == 6

    def test_store_factory_backs_named_tenants(self):
        from repro.distributed.store import InMemoryStore

        made = {}

        def factory(name):
            made[name] = InMemoryStore(name=f"custom:{name}")
            return made[name]

        core = CheckerServiceCore(store_factory=factory)
        core.tenant("acme")
        assert core.tenant("acme").store is made["acme"]


class TestClosedTenancy:
    """Only ``append_delta`` opens a tenant.  Every read on a name that
    never published answers what an empty tenant would, and the request
    door refuses a mistyped field instead of coercing it."""

    #: One request of every op that reads (or deletes) without opening.
    READS = (
        {"op": "check"},
        {"op": "reports"},
        {"op": "get_deltas", "site": "s0", "after_seq": 0},
        {"op": "get_state", "site": "s0"},
        {"op": "delta_tail", "site": "s0"},
        {"op": "delta_sites"},
        {"op": "delete", "site": "s0"},
        {"op": "health"},
    )

    @staticmethod
    def series(registry):
        from repro.obs.export import to_prometheus

        return {
            line.rsplit(" ", 1)[0]
            for line in to_prometheus(registry).splitlines()
            if line and not line.startswith("#")
        }

    def test_reads_of_fresh_tenants_open_nothing(self):
        registry = MetricsRegistry()
        core = CheckerServiceCore(metrics=registry)
        core.handle({"op": "append_delta", "tenant": "acme", "site": "s0",
                     "obj": make_snapshot(1, {}, "S")})
        for read in self.READS:  # every series a read makes exists now
            core.handle({**read, "tenant": "acme"})
            core.handle({**read, "tenant": "acme", "site": "ghost"})
        before = self.series(registry)
        for i in range(10_000):
            read = self.READS[i % len(self.READS)]
            core.handle({**read, "tenant": f"fresh{i}"})
        assert core.tenant_names() == ["acme"]
        assert self.series(registry) == before

    def test_refused_appends_to_fresh_tenants_open_nothing(self):
        """Only a well-formed snapshot opens a tenant: a malformed delta
        and a delta with no base are refused, with the error a store
        would answer, before any store, checker or series exists."""
        registry = MetricsRegistry()
        core = CheckerServiceCore(metrics=registry)
        gapped = {"v": 3, "stream": "S", "seq": 2, "kind": "delta",
                  "set": {}, "clear": []}
        refused = [([1], "value"), ({**gapped, "restore": {}}, "value"),
                   (gapped, "sequence")]
        core.handle({"op": "append_delta", "tenant": "acme", "site": "s0",
                     "obj": make_snapshot(1, {}, "S")})
        for obj, _ in refused:  # every error series exists now
            core.handle({"op": "append_delta", "tenant": "acme", "site": "s1",
                         "obj": obj})
        before = self.series(registry)
        for i in range(1000):
            obj, error = refused[i % len(refused)]
            response = core.handle({"op": "append_delta", "tenant": f"fresh{i}",
                                    "site": "s0", "obj": obj})
            assert response["ok"] is False and response["error"] == error
        assert core.tenant_names() == ["acme"]
        assert self.series(registry) == before
        assert core.handle({"op": "append_delta", "tenant": "y", "site": "s0",
                            "obj": gapped})["message"] == (
            "site s0: delta S/2 does not extend empty stream")
        assert core.handle({"op": "append_delta", "tenant": "new", "site": "s0",
                            "obj": make_snapshot(1, {}, "S")}) == ACK
        assert core.tenant_names() == ["acme", "new"]
        assert core.tenant("new").delta_tail("s0") == ("S", 1)

    @pytest.mark.parametrize("read", READS, ids=lambda read: read["op"])
    def test_a_fresh_tenant_answers_as_an_empty_one(self, read):
        core = CheckerServiceCore()
        core.tenant("empty")  # opened by hand, never published to
        fresh = core.handle({**read, "tenant": "fresh"})
        known = core.handle({**read, "tenant": "empty"})
        assert core.tenant_names() == ["empty"]
        if read["op"] in ("get_deltas", "get_state"):
            assert fresh["error"] == known["error"] == "sequence"
            assert fresh["message"] == known["message"].replace(
                "empty", "fresh")
            return
        if read["op"] == "health":
            known["value"]["tenant"] = "fresh"
        assert fresh == known

    @pytest.mark.parametrize("request_", [
        {"op": "check", "tenant": None},
        {"op": "check", "tenant": 5},
        {"op": "health", "tenant": 5},
        {"op": "append_delta", "tenant": 5, "site": "s0",
         "obj": make_snapshot(1, {}, "S")},
        {"op": "append_delta", "site": 7, "obj": make_snapshot(1, {}, "S")},
        {"op": "get_state", "site": 7},
        {"op": "delete", "site": 7},
        {"op": "get_deltas", "site": "s0", "after_seq": 0, "stream": 5},
        {"op": "get_deltas", "site": "s0", "after_seq": True},
        {"op": "get_deltas", "site": "s0", "after_seq": "3"},
        {"op": "get_deltas", "site": "s0", "after_seq": 2.9},
        {"op": "get_deltas", "site": "s0", "after_seq": -1},
    ], ids=["tenant-null", "tenant-number", "health-tenant-number",
            "append-tenant-number", "append-site-number", "site-number",
            "delete-site-number", "stream-number", "after-seq-true",
            "after-seq-string", "after-seq-fraction", "after-seq-negative"])
    def test_a_mistyped_field_is_refused_not_coerced(self, request_):
        """Each of these was served once: ``5`` as tenant ``"5"``,
        ``null`` as tenant ``"None"``, ``7`` as site ``"7"``, ``True``
        as cursor 1, ``"3"`` as 3, ``2.9`` as 2."""
        core = CheckerServiceCore()
        core.handle({"op": "append_delta", "site": "s0",
                     "obj": make_snapshot(1, {}, "S")})
        for seq in (2, 3, 4):
            core.handle({"op": "append_delta", "site": "s0", "obj": {
                "v": 3, "stream": "S", "seq": seq, "kind": "delta",
                "set": {}, "clear": [],
            }})
        response = core.handle(request_)
        assert response["ok"] is False and response["error"] == "value"
        assert core.tenant_names() == ["default"]
        assert core.tenant("default").delta_tail("s0") == ("S", 4)

    def test_stream_may_be_missing_or_null(self):
        core = CheckerServiceCore()
        core.handle({"op": "append_delta", "site": "s0",
                     "obj": make_snapshot(1, {}, "S")})
        for extra in ({}, {"stream": None}, {"stream": "S"}):
            response = core.handle({"op": "get_deltas", "site": "s0",
                                    "after_seq": 1, **extra})
            assert response == {"ok": True, "value": []}, extra


class TestPeriodicChecks:
    def test_service_side_detection_without_client_polling(self):
        registry = MetricsRegistry()
        with CheckerService(
            port=0, check_interval_s=0.02, metrics=registry
        ) as svc:
            with RemoteStore(svc.host, svc.port, tenant="auto") as remote:
                a, b = crossed_knot()
                publish(remote, "s0", a)
                publish(remote, "s1", b)
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    if remote.health()["status"] == "deadlock":
                        break
                    time.sleep(0.01)
                doc = remote.health()
                assert doc["status"] == "deadlock"
                reports = remote.reports()
                assert len(reports) == 1
                assert set(reports[0].tasks) == {"a", "b"}
        assert registry.counter(
            "repro_net_check_rounds_total",
            "Periodic service-side detection rounds, across tenants.",
            volatile=True,
        ).total() >= 1

    def test_one_sick_tenant_does_not_stall_the_others(self):
        from repro.distributed.store import InMemoryStore

        stores = {}

        def factory(name):
            stores[name] = InMemoryStore(name=name)
            return stores[name]

        with CheckerService(
            port=0, check_interval_s=0.01, store_factory=factory
        ) as svc:
            with RemoteStore(svc.host, svc.port, tenant="sick") as sick, \
                 RemoteStore(svc.host, svc.port, tenant="fine") as fine:
                sick.ping()
                publish(sick, "s0", {"t": waiting_on("p", 1, p=1)})
                stores["sick"].set_available(False)  # periodic checks now fail
                a, b = crossed_knot()
                publish(fine, "s0", a)
                publish(fine, "s1", b)
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    if fine.health()["status"] == "deadlock":
                        break
                    time.sleep(0.01)
                assert fine.health()["status"] == "deadlock"


class TestObsIntegration:
    @pytest.fixture()
    def endpoint(self):
        from repro.obs.server import MetricsHTTPServer

        registry = MetricsRegistry()
        svc = CheckerService(port=0, check_interval_s=0, metrics=registry)
        svc.start()
        a, b = crossed_knot()
        stuck = svc.core.tenant("stuck")
        publish(stuck, "s0", a)
        publish(stuck, "s1", b)
        stuck.check()
        calm = svc.core.tenant("calm")
        publish(calm, "s0", {"t": waiting_on("p", 1, p=1)})
        with MetricsHTTPServer(registry, port=0, service=svc) as http:
            yield http
        assert svc.stop()

    def test_aggregate_healthz_503_names_the_deadlocked_tenant(self, endpoint):
        status, body = fetch(endpoint.url + "/healthz")
        assert status == 503
        doc = json.loads(body)
        assert doc["mode"] == "checker-service"
        assert doc["deadlocked_tenants"] == ["stuck"]
        assert doc["tenants"]["stuck"]["reports"][0]["tasks"] == ["a", "b"]

    def test_per_tenant_healthz_slices(self, endpoint):
        status, body = fetch(endpoint.url + "/healthz?tenant=calm")
        assert status == 200
        assert json.loads(body)["tenant"] == "calm"
        status, body = fetch(endpoint.url + "/healthz?tenant=stuck")
        assert status == 503
        assert json.loads(body)["cycles_found"] >= 1

    def test_unknown_tenant_404s(self, endpoint):
        status, _ = fetch(endpoint.url + "/healthz?tenant=nobody")
        assert status == 404

    def test_metrics_carry_service_series(self, endpoint):
        from repro.obs.export import parse_prometheus

        status, body = fetch(endpoint.url + "/metrics")
        assert status == 200
        families = parse_prometheus(body.decode("utf-8"))
        # The service's own planes registered through the shared
        # registry: connection accounting and the tenant stores.
        assert "repro_net_connections_total" in families
        assert "repro_store_appends_total" in families

    def test_spans_route_via_service_tracer(self):
        from repro.obs.server import MetricsHTTPServer
        from repro.obs.tracing import Tracer, validate_chrome_trace

        registry = MetricsRegistry()
        tracer = Tracer()
        with CheckerService(
            port=0, check_interval_s=0, metrics=registry, tracer=tracer
        ) as svc:
            with RemoteStore(svc.host, svc.port, tenant="traced") as remote:
                remote.append_delta(
                    "s0",
                    make_snapshot(
                        1,
                        encode_bucket({"t": waiting_on("p", 1, p=1)}),
                        "S",
                    ),
                )
                remote.check()
            with MetricsHTTPServer(registry, port=0, service=svc) as http:
                status, body = fetch(http.url + "/spans")
                assert status == 200
                validate_chrome_trace(json.loads(body))


class TestLifecycle:
    def test_ephemeral_port_assigned_on_start(self, service):
        assert service.port != 0
        assert service.address.endswith(str(service.port))

    def test_stop_is_clean_and_idempotent(self):
        svc = CheckerService(port=0, check_interval_s=0).start()
        assert svc.stop() is True
        assert svc.stop() is True  # second stop: no-op, still clean

    def test_stop_with_an_open_connection_is_clean(self):
        svc = CheckerService(port=0, check_interval_s=0).start()
        remote = RemoteStore(svc.host, svc.port)
        assert remote.ping()["server"] == "repro-checker"
        try:
            assert svc.stop() is True  # open client must not wedge the loop
        finally:
            remote.close()

    def test_bind_conflict_surfaces_on_start(self):
        with CheckerService(port=0, check_interval_s=0) as first:
            second = CheckerService(port=first.port, check_interval_s=0)
            with pytest.raises(RuntimeError):
                second.start()

    def test_start_twice_is_a_noop(self, service):
        assert service.start() is service


# ---------------------------------------------------------------------------
# hostile peers, against the live socket
# ---------------------------------------------------------------------------
def request_frame(op, **args) -> bytes:
    return encode_frame({"op": op, "tenant": "hostile", **args})


def read_answers(sock, count: int, decoder=None) -> list:
    """The next ``count`` answers off a raw socket, in order."""
    decoder = decoder or FrameDecoder()
    answers = []
    while len(answers) < count:
        chunk = sock.recv(65536)
        assert chunk, f"closed after {len(answers)}/{count} answers"
        answers += decoder.feed(chunk)
    assert len(answers) == count and not decoder.pending
    return answers


def assert_closed_by_server(sock) -> None:
    """The service hung up on this connection (and sent nothing first)."""
    assert sock.recv(65536) == b""


def _mid_frame_eof(sock):
    sock.sendall(request_frame("ping")[:-3])
    sock.shutdown(socket.SHUT_WR)
    assert_closed_by_server(sock)


def _eof_mid_header_after_a_good_request(sock):
    sock.sendall(request_frame("ping") + b"\x00\x00")
    sock.shutdown(socket.SHUT_WR)
    (answer,) = read_answers(sock, 1)
    assert answer["ok"]
    assert_closed_by_server(sock)


def _oversized_length_prefix(sock):
    sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
    assert_closed_by_server(sock)  # on the header alone: nothing else sent


def _non_json_payload(sock):
    payload = b"definitely not json"
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    assert_closed_by_server(sock)


def _unhashable_op(sock):
    sock.sendall(encode_frame({"op": []}) + request_frame("ping"))
    refused, pong = read_answers(sock, 2)
    assert refused["ok"] is False and refused["error"] == "protocol"
    assert pong["ok"]  # ... and the connection lives on


def _non_object_request(sock):
    sock.sendall(encode_frame([1, 2, 3]) + request_frame("ping"))
    refused, pong = read_answers(sock, 2)
    assert refused["ok"] is False and refused["error"] == "protocol"
    assert pong["ok"]


def _non_object_delta(sock):
    sock.sendall(request_frame("append_delta", site="s0", obj=[1, 2])
                 + request_frame("delta_sites"))
    refused, sites = read_answers(sock, 2)
    assert refused["ok"] is False and refused["error"] == "value"
    assert sites == {"ok": True, "value": []}  # rejected at the door


def _dripped_header(sock):
    frame = request_frame("ping")
    for byte in frame[:4]:
        sock.sendall(bytes([byte]))
        time.sleep(0.002)
    sock.sendall(frame[4:])
    (pong,) = read_answers(sock, 1)
    assert pong["ok"] and pong["value"]["server"] == "repro-checker"


def _hundred_requests_in_one_send(sock):
    publisher = DeltaPublisher("s0")
    frames = []
    for round_ in range(1, 101):
        obj = publisher.prepare(encode_bucket(
            {"t": waiting_on("p", round_, p=round_)}))
        publisher.commit(obj)
        frames.append(request_frame("append_delta", site="s0", obj=obj))
        frames.append(request_frame(f"nope-{round_}"))
    frames.append(request_frame("delta_tail", site="s0"))
    sock.sendall(b"".join(frames))
    *pairs, tail = read_answers(sock, 201)
    # In order: each append extended the one before it (else a sequence
    # error), each refusal names the op sent at that position.
    assert pairs[0::2] == [ACK] * 100
    assert [a["message"] for a in pairs[1::2]] == [
        f"unknown op 'nope-{n}'" for n in range(1, 101)
    ]
    assert tail == {"ok": True, "value": [publisher.stream, 100]}


HOSTILE_PEERS = [
    _mid_frame_eof,
    _eof_mid_header_after_a_good_request,
    _oversized_length_prefix,
    _non_json_payload,
    _unhashable_op,
    _non_object_request,
    _non_object_delta,
    _dripped_header,
    _hundred_requests_in_one_send,
]


class TestHostilePeers:
    """Raw sockets against a started service.  Whatever one peer does,
    it is answered with a typed error or hung up on; the *next* peer is
    served promptly; nothing reaches the log; and ``stop()`` is clean."""

    @pytest.fixture()
    def live(self, caplog):
        caplog.set_level(logging.DEBUG)
        registry = MetricsRegistry()
        svc = CheckerService(port=0, check_interval_s=0, metrics=registry)
        svc.start()
        try:
            yield svc
            with RemoteStore(svc.host, svc.port, timeout_s=1.0,
                             retries=0) as bystander:
                assert bystander.ping()["server"] == "repro-checker"
        finally:
            clean = svc.stop()
        assert clean is True
        gc.collect()  # a dead task's exception is logged when collected
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert "never retrieved" not in caplog.text
        assert "Fatal error" not in caplog.text

    @pytest.fixture()
    def peer(self, live):
        sock = socket.create_connection((live.host, live.port), timeout=5.0)
        yield sock
        sock.close()

    @pytest.mark.parametrize(
        "misbehave", HOSTILE_PEERS, ids=lambda f: f.__name__.strip("_"))
    def test_one_bad_peer_hurts_only_itself(self, peer, misbehave):
        misbehave(peer)

    @pytest.fixture()
    def big_state(self, live):
        """A state worth ~260 KB on the wire -> (the frame that asks for
        it, the size of the answer frame)."""
        publish(live.core.tenant("hostile"), "big", {
            f"task-{k:04d}-{'x' * 80}": waiting_on("p", 1, p=1)
            for k in range(2000)
        })
        answer_bytes = len(encode_frame(live.core.handle(
            {"op": "get_state", "tenant": "hostile", "site": "big"})))
        assert answer_bytes > 250_000
        return request_frame("get_state", site="big"), answer_bytes

    def test_a_peer_that_resets_mid_batch_is_not_answered_further(
            self, live, peer, big_state):
        ask, _ = big_state
        asked_before = live.core._m_requests.value(op="get_state")
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))  # close() sends a reset
        peer.sendall(ask * 200)
        peer.close()
        deadline = time.monotonic() + 5.0
        while live._transports and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not live._transports  # the service let go of it
        served = live.core._m_requests.value(op="get_state") - asked_before
        assert served < 50  # not 200 answers encoded for nobody

    def test_a_peer_that_never_reads_stops_being_read(
            self, live, peer, big_state):
        # Asked for over and over by a peer that never reads an answer.
        ask, answer_bytes = big_state
        asked_before = live.core._m_requests.value(op="get_state")

        def buffered() -> int:
            return max((t.get_write_buffer_size()
                        for t in list(live._transports)), default=0)

        # One answer plus asyncio's high-water mark is all the service
        # may ever hold for this peer.
        bound = answer_bytes + (128 << 10)
        peer.setblocking(False)
        gulp = ask * 1024
        sent, blocked_since = 0, None
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            assert buffered() <= bound
            try:
                sent += peer.send(gulp)
                blocked_since = None
            except BlockingIOError:
                # Blocked: the service stopped reading.  Call it stable
                # once nothing has moved for a quarter of a second.
                blocked_since = blocked_since or time.monotonic()
                if time.monotonic() - blocked_since > 0.25:
                    break
                time.sleep(0.01)
            assert sent < (256 << 20), "the service never stopped reading"
        else:
            pytest.fail("the peer's send never blocked")
        asked = sent // len(ask)
        served = live.core._m_requests.value(op="get_state") - asked_before
        assert buffered() <= bound
        # Thousands asked for, a handful answered: what the kernel's
        # socket buffers took, not what the peer wrote.
        assert served * answer_bytes < (32 << 20) and served < asked / 10
