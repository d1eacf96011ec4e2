"""Store tests: delta streams, wire format, failure injection, replication.

The delta protocol's fault story is pinned here: stores validate stream
contiguity (gap -> :class:`DeltaSequenceError`, the "checkpoint needed"
signal), compact logs at snapshots, and the replicated facade heals a
recovered-stale replica by requesting a checkpoint from a healthy one.
"""

from __future__ import annotations

import pytest

from repro.core.events import BlockedStatus, Event, waiting_on
from repro.distributed.delta import (
    DeltaPublisher,
    DeltaSequenceError,
    decode_blob,
    encode_bucket,
    make_snapshot,
)
from repro.distributed import store as store_mod
from repro.distributed.store import (
    InMemoryStore,
    ReplicatedStore,
    StoreUnavailableError,
)
from repro.obs.registry import MetricsRegistry
from repro.trace.events import TraceFormatError


def delta(seq, set=None, clear=None, stream="S"):
    return {
        "v": 3,
        "stream": stream,
        "seq": seq,
        "kind": "delta",
        "set": set or {},
        "clear": clear or [],
    }


def blob(task="t", phaser="p", phase=1):
    return encode_bucket({task: waiting_on(phaser, phase, **{phaser: phase})})


class TestWireFormat:
    def test_roundtrip(self):
        statuses = {
            "t1": waiting_on("pc", 1, pc=1, pb=0),
            "t2": BlockedStatus(
                waits=frozenset({Event("a", 2), Event("b", 1)}),
                registered={"a": 1},
            ),
        }
        blobs = encode_bucket(statuses)
        decoded = {task: decode_blob(blob) for task, blob in blobs.items()}
        assert decoded["t1"].waits == statuses["t1"].waits
        assert dict(decoded["t1"].registered) == dict(statuses["t1"].registered)
        assert decoded["t2"].waits == statuses["t2"].waits
        # A blob is the status's two facts and nothing else.
        assert {tuple(blob) for blob in blobs.values()} == {("waits", "registered")}
        with pytest.raises(TraceFormatError):
            decode_blob({**blobs["t2"], "generation": 0})

    def test_encoding_is_json_plain(self):
        import json

        blob = encode_bucket({"t": waiting_on("p", 1, p=1)})
        json.dumps(blob)  # must not raise


class TestDeltaStream:
    def test_snapshot_opens_a_stream(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        stream, seq, state = store.get_state("s0")
        assert (stream, seq) == ("S", 1) and set(state) == {"a"}
        assert store.delta_sites() == ["s0"]

    def test_deltas_extend_and_materialise(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        store.append_delta("s0", delta(2, set=blob("b", "q")))
        store.append_delta("s0", delta(3, clear=["a"]))
        stream, seq, state = store.get_state("s0")
        assert seq == 3 and set(state) == {"b"}

    def test_gap_rejected(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, {}, "S"))
        with pytest.raises(DeltaSequenceError):
            store.append_delta("s0", delta(3))

    def test_delta_without_stream_rejected(self):
        store = InMemoryStore()
        with pytest.raises(DeltaSequenceError):
            store.append_delta("s0", delta(1))

    def test_get_deltas_serves_from_cursor(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        store.append_delta("s0", delta(2, set=blob("b", "q")))
        out = store.get_deltas("s0", 0)
        assert [o["seq"] for o in out] == [1, 2]
        assert store.get_deltas("s0", 2) == []

    def test_cursor_ahead_of_tail_raises(self):
        """A site restarting its stream (fresh snapshot at seq 1) makes
        old cursors unservable — the consumer must resync."""
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        with pytest.raises(DeltaSequenceError):
            store.get_deltas("s0", 9)

    def test_snapshot_compacts_the_log(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, {}, "S"))
        store.append_delta("s0", delta(2, set=blob("a")))
        store.append_delta("s0", make_snapshot(3, blob("a"), "S"))
        # The pre-snapshot entries are gone; old cursors fall back.
        with pytest.raises(DeltaSequenceError):
            store.get_deltas("s0", 0)
        assert [o["seq"] for o in store.get_deltas("s0", 2)] == [3]

    def test_log_cap_compacts(self, monkeypatch):
        monkeypatch.setattr(store_mod, "MAX_LOG", 4)
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, {}, "S"))
        for i in range(2, 12):
            store.append_delta("s0", delta(i, set={f"t{i}": blob("x")["x"]}))
        with pytest.raises(DeltaSequenceError):
            store.get_deltas("s0", 1)  # compacted off
        assert len(store.get_deltas("s0", 11 - 4)) == 4

    def test_delete_removes_the_stream(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        store.delete("s0")
        assert store.delta_sites() == []
        with pytest.raises(DeltaSequenceError):
            store.get_state("s0")

    def test_outage_raises(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, {}, "S"))
        store.set_available(False)
        with pytest.raises(StoreUnavailableError):
            store.append_delta("s0", delta(2))
        with pytest.raises(StoreUnavailableError):
            store.get_deltas("s0", 0)
        with pytest.raises(StoreUnavailableError):
            store.delta_sites()

    def test_operation_accounting(self):
        reg = MetricsRegistry()
        store = InMemoryStore(metrics=reg)
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        store.get_deltas("s0", 0)
        ops = reg.get("repro_store_ops_total")
        assert ops.value(store="store", op="put") == 1
        assert ops.value(store="store", op="get") == 1

    def test_recovery_keeps_the_stream(self):
        store = InMemoryStore()
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        store.set_available(False)
        store.set_available(True)
        assert store.get_state("s0") == ("S", 1, blob("a"))


class TestReplicatedStore:
    def test_requires_replicas(self):
        with pytest.raises(ValueError):
            ReplicatedStore([])

    def test_delta_write_through(self):
        replicas = [InMemoryStore(f"r{i}") for i in range(3)]
        store = ReplicatedStore(replicas)
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        store.append_delta("s0", delta(2, set=blob("b", "q")))
        for replica in replicas:
            stream, seq, state = replica.get_state("s0")
            assert seq == 2 and set(state) == {"a", "b"}

    def test_survives_partial_outage(self):
        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        replicas[0].set_available(False)
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        assert store.get_state("s0")[2]

    def test_total_outage_raises(self):
        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        for r in replicas:
            r.set_available(False)
        with pytest.raises(StoreUnavailableError):
            store.append_delta("s0", make_snapshot(1, {}, "S"))
        with pytest.raises(StoreUnavailableError):
            store.delta_sites()

    def test_delete_with_every_replica_down_raises(self):
        """Like every other operation of the facade (and like a plain
        store's own ``delete``): no reachable replica is an outage, not
        a silent success."""
        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        replicas[0].set_available(False)
        store.delete("s0")  # one reachable replica is enough
        replicas[1].set_available(False)
        with pytest.raises(StoreUnavailableError):
            store.delete("s0")

    def test_recovered_replica_heals_via_checkpoint(self):
        """The satellite fault path: a replica dies mid-stream, misses
        deltas, recovers — the next write-through detects its sequence
        gap and heals it with a checkpoint from a healthy replica."""
        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        replicas[0].set_available(False)
        store.append_delta("s0", delta(2, set=blob("b", "q")))  # r0 misses it
        replicas[0].set_available(True)
        assert replicas[0].get_state("s0")[1] == 1  # stale...
        store.append_delta("s0", delta(3, set=blob("c", "r")))
        seq0, state0 = replicas[0].get_state("s0")[1:]
        seq1, state1 = replicas[1].get_state("s0")[1:]
        assert seq0 == seq1 == 3  # ...healed by the checkpoint
        assert state0 == state1

    def test_all_live_replicas_stale_signals_publisher(self):
        """Failover onto recovered-stale replicas only: the facade
        cannot heal anyone (no healthy copy exists), so the publisher
        is told to checkpoint — and the checkpoint then lands."""
        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        for r in replicas:
            r.set_available(False)
        # The publisher's appends fail as outages (seq 2 never lands).
        with pytest.raises(StoreUnavailableError):
            store.append_delta("s0", delta(2, set=blob("b", "q")))
        for r in replicas:
            r.set_available(True)
        with pytest.raises(DeltaSequenceError):
            store.append_delta("s0", delta(3, set=blob("c", "r")))
        store.append_delta("s0", make_snapshot(3, blob("c", "r"), "S"))
        assert store.get_state("s0")[1] == 3

    def test_read_repair_heals_idle_sites(self):
        """The idle-site fault path: a site with no further changes
        never appends, so write-repair alone would leave a recovered
        replica stale forever. Any delta *read* probes replica tails
        and heals divergents from the newest stream."""
        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        store.append_delta("s0", make_snapshot(1, blob("a"), "S"))
        replicas[1].set_available(False)
        store.append_delta("s0", delta(2, clear=["a"]))  # r1 misses the clear
        replicas[1].set_available(True)
        assert replicas[1].get_state("s0")[1] == 1  # stale: still holds a
        # The site is now idle (no appends); a checker's ordinary read
        # must still heal r1.
        store.get_deltas("s0", 2)
        assert replicas[1].get_state("s0")[1] == 2
        assert replicas[1].get_state("s0")[2] == {}  # the clear arrived

    def test_read_repair_prefers_the_newest_stream(self):
        """Divergent streams: the lexicographically greatest
        (time-prefixed) stream token wins, whoever answered the read —
        a stale replica serving first must not clobber a newer one."""
        from repro.distributed.delta import fresh_stream_token

        old_stream = fresh_stream_token()
        new_stream = fresh_stream_token()
        assert old_stream < new_stream  # time-ordered tokens
        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        # r0 holds the old incarnation, r1 the new one.
        replicas[0].append_delta("s0", make_snapshot(5, blob("a"), old_stream))
        replicas[1].append_delta("s0", make_snapshot(1, blob("b", "q"), new_stream))
        store.get_state("s0")  # served by r0 (first reachable) ...
        # ... but the heal direction follows the newest stream.
        assert replicas[0].get_state("s0")[0] == new_stream
        assert set(replicas[0].get_state("s0")[2]) == {"b"}

    def test_replica_missing_a_sites_whole_stream_cannot_hide_it(self):
        """A replica that was down for a site's *first* publish has no
        stream for it at all.  Its listing must not be authoritative
        (the union keeps the site visible), reads must fail over to a
        replica that has the stream, and read-repair must then heal the
        empty replica — otherwise an idle site's deadlocked tasks would
        be silently dropped from every checker's view."""
        from repro.core.events import waiting_on
        from repro.distributed.delta import DeltaPublisher, encode_bucket
        from repro.distributed.detector import DistributedChecker

        replicas = [InMemoryStore(f"r{i}") for i in range(2)]
        store = ReplicatedStore(replicas)
        replicas[0].set_available(False)
        pub = DeltaPublisher("sX")
        knot = {
            "a": waiting_on("p", 1, p=1, q=0),
            "b": waiting_on("q", 1, q=1, p=0),
        }
        obj = pub.prepare(encode_bucket(knot))
        store.append_delta("sX", obj)  # lands on r1 only
        pub.commit(obj)
        replicas[0].set_available(True)
        assert replicas[0].delta_sites() == []  # r0 never saw sX
        assert "sX" in store.delta_sites()  # ...but the union has it
        checker = DistributedChecker(store)
        report = checker.check_global()  # served via failover to r1
        assert report is not None and set(report.tasks) == {"a", "b"}
        # The read healed r0: it now carries sX's stream too.
        assert "sX" in replicas[0].delta_sites()
        assert set(replicas[0].get_state("sX")[2]) == {"a", "b"}
