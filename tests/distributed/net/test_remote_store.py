"""``RemoteStore`` as a drop-in store: surface parity, error fidelity,
transport robustness — the tentpole's client-side contract.

Everything here runs against a real :class:`CheckerService` socket
(ephemeral port, fixtures in ``conftest.py``): the point is that the
delta protocol's semantics — tail validation, sequence-gap recovery,
outage tolerance — survive the hop because the *exception types* do.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.core.events import waiting_on
from repro.distributed.delta import (
    DeltaPublisher,
    DeltaSequenceError,
    encode_bucket,
    make_snapshot,
)
from repro.distributed.detector import DistributedChecker
from repro.distributed.net import CheckerService, RemoteProtocolError, RemoteStore
from repro.distributed.net.framing import ACK, FrameDecoder, encode_frame
from repro.distributed.store import InMemoryStore, StoreUnavailableError


def publish(store, site, statuses, publisher=None):
    """One delta-protocol publication round for ``site`` (same helper
    the in-process detector tests use — deliberately: the differential
    suite publishes through both paths with identical code)."""
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


def blob(*tasks):
    return encode_bucket(
        {t: waiting_on(f"e{t}", 1, **{f"e{t}": 1}) for t in tasks}
    )


def delta(seq, set=None, clear=None, stream="S"):
    return {
        "kind": "delta", "stream": stream, "seq": seq,
        "set": set or {}, "clear": list(clear or []),
    }


def sans_stream(value):
    """Drop publisher stream tokens (fresh randomness per publisher)
    so two independently-published histories can be compared."""
    if isinstance(value, dict):
        return {k: sans_stream(v) for k, v in value.items() if k != "stream"}
    if isinstance(value, (list, tuple)):
        return [sans_stream(v) for v in value]
    return value


class TestStoreSurfaceParity:
    """Every read through the wire answers exactly what an
    ``InMemoryStore`` fed the same appends answers (modulo the random
    per-publisher stream token)."""

    def test_five_method_surface(self, make_client):
        remote = make_client("parity")
        local = InMemoryStore()
        a, b = crossed_knot()
        for store in (remote, local):
            publish(store, "s0", a)
            publish(store, "s1", b)
        assert remote.delta_sites() == local.delta_sites()
        for site in ("s0", "s1"):
            assert sans_stream(remote.get_state(site)[1:]) == \
                sans_stream(local.get_state(site)[1:])
            assert sans_stream(remote.get_deltas(site, 0)) == \
                sans_stream(local.get_deltas(site, 0))
            assert remote.delta_tail(site)[1] == local.delta_tail(site)[1]
        remote.delete("s0")
        local.delete("s0")
        assert remote.delta_sites() == local.delta_sites() == ["s1"]
        assert remote.delta_tail("s0") is None

    def test_client_side_checker_over_the_wire(self, make_client):
        """A ``DistributedChecker`` fed by a ``RemoteStore`` — the
        drop-in claim, verbatim: cross-site cycle found, O(change)
        resync, no code change anywhere."""
        remote = make_client("checker")
        a, b = crossed_knot()
        publish(remote, "s0", a)
        publish(remote, "s1", b)
        checker = DistributedChecker(remote)
        report = checker.check_global()
        assert report is not None and report.tasks == ("a", "b")

    def test_site_over_the_wire(self, make_client):
        """A full ``Site`` (both background loops) running against the
        service instead of an in-process store."""
        from repro.distributed.site import Site

        remote = make_client("site")
        with Site(
            "s0", remote, check_interval_s=0.02, publish_interval_s=0.01,
            cancel_on_detect=False,
        ) as site:
            dep = site.runtime.checker.dependency
            dep.set_blocked("a", waiting_on("p", 1, p=1, q=0))
            dep.set_blocked("b", waiting_on("q", 1, q=1, p=0))
            deadline = time.time() + 10.0
            while not site.reports and time.time() < deadline:
                time.sleep(0.01)
        assert site.reports and site.reports[0].tasks == ("a", "b")
        assert not site.loop_errors


class TestErrorFidelity:
    def test_sequence_gap_crosses_the_wire_typed(self, make_client):
        remote = make_client("gaps")
        remote.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        with pytest.raises(DeltaSequenceError):
            remote.append_delta("s0", delta(5, set=blob("b")))
        # ... and the protocol's own recovery (a forced checkpoint)
        # heals it, exactly as in-process:
        remote.append_delta("s0", make_snapshot(2, blob("a", "b"), "S"))
        assert remote.get_state("s0")[1] == 2

    def test_publisher_gap_recovery_through_the_wire(self, make_client):
        remote = make_client("pubgap")
        a, _ = crossed_knot()
        pub = publish(remote, "s0", a)
        remote.delete("s0")  # the service forgot the stream
        bucket = encode_bucket(
            {"a": waiting_on("p", 1, p=1, q=0), "c": waiting_on("r", 1, r=1)}
        )
        obj = pub.prepare(bucket)
        with pytest.raises(DeltaSequenceError):
            remote.append_delta("s0", obj)
        checkpoint = pub.prepare_checkpoint(bucket)
        remote.append_delta("s0", checkpoint)
        pub.commit(checkpoint)
        assert set(remote.get_state("s0")[2]) == {"a", "c"}

    def test_store_unavailable_crosses_typed_without_burning_retries(self):
        """A *server-side* outage is a semantic answer, not transport
        trouble: it must re-raise as ``StoreUnavailableError`` without
        consuming a single transport retry."""
        backing = InMemoryStore("injected")
        with CheckerService(
            port=0, check_interval_s=0, store_factory=lambda name: backing
        ) as svc:
            with RemoteStore(svc.host, svc.port, tenant="outage") as remote:
                backing.set_available(False)
                with pytest.raises(StoreUnavailableError):
                    remote.append_delta("s0", make_snapshot(1, blob("a"), "S"))
                assert remote.transport_failures == 0
                backing.set_available(True)
                remote.append_delta("s0", make_snapshot(1, blob("a"), "S"))

    def test_malformed_delta_rejected_as_value_error(self, make_client):
        remote = make_client("malformed")
        with pytest.raises(ValueError):
            remote.append_delta("s0", {"kind": "delta"})  # no stream/seq/ops

    def test_unknown_op_is_a_protocol_error(self, make_client):
        remote = make_client("unknown")
        with pytest.raises(RemoteProtocolError):
            remote._request("frobnicate")

    @pytest.mark.parametrize("answer", [
        [], {"tasks": ["a"]}, {"provenance": {"origins": [], "edges": [[0]]}},
    ])
    def test_malformed_report_is_a_protocol_error(self, monkeypatch, answer):
        # A service answering `check`/`reports` with something that is
        # not a report is outside the protocol — never a decoder leak.
        remote = RemoteStore(port=1)
        monkeypatch.setattr(
            remote, "_request",
            lambda op, **args: answer if op == "check" else [answer],
        )
        with pytest.raises(RemoteProtocolError):
            remote.check()
        with pytest.raises(RemoteProtocolError):
            remote.reports()
        monkeypatch.setattr(remote, "_request", lambda op, **args: {"a": 1})
        with pytest.raises(RemoteProtocolError):
            remote.reports()


class TestTransportRobustness:
    def test_unreachable_service_exhausts_retries(self):
        # Bind-then-close: a port with nothing listening on it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        remote = RemoteStore(
            "127.0.0.1", port, retries=2, backoff_s=0.001,
            connect_timeout_s=0.5,
        )
        with pytest.raises(StoreUnavailableError):
            remote.ping()
        assert remote.transport_failures == 2

    def test_broken_connection_retried_on_a_fresh_one(self, make_client):
        remote = make_client("reconnect")
        assert remote.ping()["server"] == "repro-checker"
        # Sever the established connection under the client's feet; the
        # next request must fail transport-side, retry on a fresh
        # connection, and succeed.
        remote._sock.close()
        assert remote.ping()["server"] == "repro-checker"
        assert remote.transport_failures >= 1

    def test_reconnect_after_a_cut_response_starts_from_an_empty_decoder(self):
        # A scripted service: the first connection answers with a frame
        # cut mid-payload and hangs up; the second answers properly.  A
        # decoder carried across the reconnect would swallow the second
        # answer into the first one's missing 990 bytes.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        pong = {"ok": True, "value": {"server": "scripted"}}
        scripts = [struct.pack(">I", 1000) + b'{"ok":true', encode_frame(pong)]
        requests = []

        def serve():
            for script in scripts:
                conn, _ = listener.accept()
                with conn:
                    decoder, got = FrameDecoder(), []
                    while not got:
                        got = decoder.feed(conn.recv(65536))
                    requests.extend(got)
                    conn.sendall(script)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            with RemoteStore(*listener.getsockname(), retries=1,
                             backoff_s=0.001, timeout_s=2.0) as remote:
                assert remote.ping() == pong["value"]
                assert remote.transport_failures == 1
                assert remote._decoder.pending == 0
        finally:
            server.join(5)
            listener.close()
        assert [r["op"] for r in requests] == ["ping", "ping"]

    def test_the_ack_unwraps_like_its_parsed_bytes(self, make_client):
        remote = make_client("ack")
        parsed = json.loads(encode_frame(ACK)[4:])
        assert parsed == ACK and parsed is not ACK
        assert remote._unwrap(ACK) is remote._unwrap(parsed) is None
        remote.append_delta("s0", make_snapshot(1, {}, "S"))  # an ack, live
        assert remote.delta_tail("s0") == ("S", 1)

    def test_zero_retries_fail_immediately(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        remote = RemoteStore(
            "127.0.0.1", port, retries=0, connect_timeout_s=0.5
        )
        with pytest.raises(StoreUnavailableError):
            remote.ping()
        assert remote.transport_failures == 0


class TestTenancy:
    def test_tenants_are_disjoint_namespaces(self, make_client):
        acme = make_client("acme")
        umbrella = make_client("umbrella")
        a, b = crossed_knot()
        publish(acme, "s0", a)
        publish(umbrella, "s1", b)
        assert acme.delta_sites() == ["s0"]
        assert umbrella.delta_sites() == ["s1"]
        # Neither tenant's view holds a cycle on its own.
        assert acme.check() is None
        assert umbrella.check() is None

    def test_same_tenant_shared_across_clients(self, make_client):
        one = make_client("shared")
        two = make_client("shared")
        a, b = crossed_knot()
        publish(one, "s0", a)
        publish(two, "s1", b)
        report = one.check()
        assert report is not None and report.tasks == ("a", "b")
