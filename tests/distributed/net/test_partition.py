"""Network-partition fault scenarios, driven end-to-end over sockets.

The in-process :class:`ReplicatedStore` suite (``test_store.py``) pins
the healing semantics; this suite re-runs the same fault scripts with
the replicated facade *behind the checker service* (via
``store_factory``) and every append/read arriving through a
:class:`RemoteStore` over a real TCP connection — proving the replica
heal paths, outage signalling, and publisher-gap recovery survive the
transport hop with the same observable outcomes.
"""

from __future__ import annotations

import pytest

from repro.core.events import waiting_on
from repro.distributed.delta import DeltaSequenceError, encode_bucket, make_snapshot
from repro.distributed.net import CheckerService, RemoteStore
from repro.distributed.store import (
    InMemoryStore,
    ReplicatedStore,
    StoreUnavailableError,
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


@pytest.fixture()
def cluster():
    """A service whose sole tenant is backed by a 2-replica store, plus
    a connected client: (client, replicas)."""
    replicas = [InMemoryStore(f"r{i}") for i in range(2)]
    with CheckerService(
        port=0, check_interval_s=0,
        store_factory=lambda name: ReplicatedStore(replicas),
    ) as svc:
        with RemoteStore(
            svc.host, svc.port, tenant="cluster", backoff_s=0.01
        ) as client:
            yield client, replicas


class TestReplicatedOverTheWire:
    def test_write_through_reaches_every_replica(self, cluster):
        client, replicas = cluster
        client.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        client.append_delta("s0", delta(2, set=blob("b")))
        for replica in replicas:
            stream, seq, state = replica.get_state("s0")
            assert seq == 2 and set(state) == {"a", "b"}

    def test_partial_outage_tolerated(self, cluster):
        client, replicas = cluster
        replicas[0].set_available(False)
        client.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        assert set(client.get_state("s0")[2]) == {"a"}

    def test_total_outage_raises_typed_without_transport_retries(self, cluster):
        client, replicas = cluster
        for replica in replicas:
            replica.set_available(False)
        with pytest.raises(StoreUnavailableError):
            client.append_delta("s0", make_snapshot(1, {}, "S"))
        with pytest.raises(StoreUnavailableError):
            client.delta_sites()
        # Semantic outage, not transport trouble: no retry burn.
        assert client.transport_failures == 0

    def test_recovered_replica_heals_via_checkpoint(self, cluster):
        """A replica dies mid-stream, misses deltas, recovers; the next
        write-through — arriving over the wire — detects its gap and
        heals it with a checkpoint from a healthy replica."""
        client, replicas = cluster
        client.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        replicas[0].set_available(False)
        client.append_delta("s0", delta(2, set=blob("b")))  # r0 misses it
        replicas[0].set_available(True)
        assert replicas[0].get_state("s0")[1] == 1  # stale...
        client.append_delta("s0", delta(3, set=blob("c")))
        seq0, state0 = replicas[0].get_state("s0")[1:]
        seq1, state1 = replicas[1].get_state("s0")[1:]
        assert seq0 == seq1 == 3  # ...healed by the checkpoint
        assert state0 == state1

    def test_all_live_replicas_stale_signals_remote_publisher(self, cluster):
        """Failover onto recovered-stale replicas only: no healthy copy
        exists, so the *remote* publisher is told to checkpoint — the
        DeltaSequenceError crosses the wire — and the checkpoint lands."""
        client, replicas = cluster
        client.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        for replica in replicas:
            replica.set_available(False)
        with pytest.raises(StoreUnavailableError):
            client.append_delta("s0", delta(2, set=blob("b")))
        for replica in replicas:
            replica.set_available(True)
        with pytest.raises(DeltaSequenceError):
            client.append_delta("s0", delta(3, set=blob("c")))
        client.append_delta("s0", make_snapshot(3, blob("c"), "S"))
        assert client.get_state("s0")[1] == 3

    def test_read_repair_heals_idle_sites_through_remote_reads(self, cluster):
        """An idle site never appends again; a checker's ordinary
        *remote* read must still probe replica tails and heal the
        recovered-stale one."""
        client, replicas = cluster
        client.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        replicas[1].set_available(False)
        client.append_delta("s0", delta(2, clear=["a"]))  # r1 misses the clear
        replicas[1].set_available(True)
        assert replicas[1].get_state("s0")[1] == 1  # stale: still holds a
        client.get_deltas("s0", 2)  # a remote checker's ordinary read
        assert replicas[1].get_state("s0")[1] == 2
        assert replicas[1].get_state("s0")[2] == {}  # the clear arrived

    def test_detection_after_partition_heals(self, cluster):
        """End-to-end: a cross-site deadlock published through an
        outage window is still detected service-side once the replica
        set heals, and the report reaches the client decoded."""
        client, replicas = cluster
        knot_a = encode_bucket({"a": waiting_on("p", 1, p=1, q=0)})
        knot_b = encode_bucket({"b": waiting_on("q", 1, q=1, p=0)})
        client.append_delta("s0", make_snapshot(1, knot_a, "SA"))
        replicas[0].set_available(False)
        client.append_delta("s1", make_snapshot(1, knot_b, "SB"))
        replicas[0].set_available(True)
        report = client.check()
        assert report is not None
        assert set(report.tasks) == {"a", "b"}
        assert replicas[0].get_state("s1")[1] == 1  # healed on the way
