"""The global resource-dependency store (the paper's Redis).

Sites publish under their own key — writes are disjoint by
construction, so no cross-site coordination is needed — and checkers
read the other sites' publications.  Everything crosses the "wire" in
an explicit serialised form (plain lists/dicts), keeping the store
substitutable by a real network KV store.

**The delta protocol** (the live surface; see
:mod:`repro.distributed.delta`): each site owns an append-only *delta
stream* — :meth:`InMemoryStore.append_delta` validates that a delta
extends the stream's tail (a mismatch raises
:class:`~repro.distributed.delta.DeltaSequenceError`: the publisher
must checkpoint), materialises a per-site state bucket as deltas
arrive, and compacts the log at every snapshot.  Checkers poll
:meth:`InMemoryStore.get_deltas` from their cursor — O(change) per
round — and fall back to :meth:`InMemoryStore.get_state` (a full
checkpoint read) when their cursor falls off the retained log.

The delta protocol is the only store protocol, and ``publish_delta`` is
the only trace record of a store write.

Fault injection: :meth:`InMemoryStore.set_available` simulates an outage
(operations raise :class:`StoreUnavailableError`);
:class:`ReplicatedStore` layers Redis-style failover on top, so detection
survives the loss of a replica — the property the paper relies on for
"the algorithm resists (ii) because Redis itself is fault-tolerant".
Under the delta protocol a replica that recovers *stale* rejects the
next append with a sequence gap; the facade heals it with a checkpoint
synthesised from a healthy replica's materialised state, so the
fault-injection story (lose a replica mid-run, keep detecting) survives
the protocol change.

``recorder`` (an optional :class:`~repro.trace.recorder.TraceRecorder`)
captures every successful ``append_delta`` as a ``publish_delta`` trace
record — the site-publish observation point of the trace subsystem.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.distributed.delta import (
    Cursor,
    DeltaSequenceError,
    apply_ops_to_bucket,
    make_snapshot,
    validate_extends,
)
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER

#: Store-side log retention: entries kept per site beyond the last
#: snapshot.  Publishers checkpoint more often than this, so the cap is
#: a backstop for foreign publishers that never do.
MAX_LOG = 256


class StoreUnavailableError(RuntimeError):
    """The data store (or every replica) is unreachable."""


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------
class InMemoryStore:
    """A thread-safe per-site store with injectable outages.

    Holds each site's delta stream: retained log, tail cursor and
    materialised state.  All accounting lives in ``repro.obs`` counters
    (labelled by the store's ``name``) of the registry passed as
    ``metrics`` — like every other component's, the default is the
    no-op registry.
    """

    def __init__(
        self,
        name: str = "store",
        recorder=None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.name = name
        self.recorder = recorder
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._lock = threading.Lock()
        # Per site: retained log, seq of the entry before the first
        # retained one, (stream, tail-seq) cursor, materialised state.
        self._logs: Dict[str, List[dict]] = {}
        self._base: Dict[str, int] = {}
        self._tail: Dict[str, Cursor] = {}
        self._states: Dict[str, Dict[str, dict]] = {}
        self._available = True
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        ops = self.metrics.counter(
            "repro_store_ops_total",
            "Store operations served, by store and direction.",
            labels=("store", "op"),
        )
        self._m_puts = ops.labels(store=name, op="put")
        self._m_gets = ops.labels(store=name, op="get")
        appends = self.metrics.counter(
            "repro_store_appends_total",
            "Delta-stream appends accepted, by entry kind.",
            labels=("store", "kind"),
        )
        self._m_append_delta = appends.labels(store=name, kind="delta")
        self._m_append_snapshot = appends.labels(store=name, kind="snapshot")
        self._m_gaps = self.metrics.counter(
            "repro_store_delta_gaps_total",
            "Sequence/stream mismatches raised to delta producers and "
            "consumers (each one forces a checkpoint or resync).",
            labels=("store",),
        ).labels(store=name)

    # -- failure injection ---------------------------------------------------
    def set_available(self, available: bool) -> None:
        with self._lock:
            self._available = available

    @property
    def available(self) -> bool:
        with self._lock:
            return self._available

    def _check_up(self) -> None:
        if not self._available:
            raise StoreUnavailableError(f"{self.name} is down")

    # -- delta-protocol operations -------------------------------------------
    def append_delta(self, site_id: str, obj: Mapping) -> None:
        """Append one wire delta to ``site_id``'s stream.

        Snapshots are accepted at any position and reset the stream
        (first publish, checkpoint cadence, gap recovery); ordinary
        deltas must carry the stream's token and extend its tail by
        exactly one — anything else raises
        :class:`DeltaSequenceError`, telling the publisher this store's
        history diverged and a checkpoint is needed.
        """
        site_id = str(site_id)
        with self._lock:
            self._check_up()
            try:
                cursor = validate_extends(self._tail.get(site_id), site_id, obj)
            except DeltaSequenceError:
                self._m_gaps.inc()
                raise
            if obj["kind"] == "snapshot":
                self._logs[site_id] = [dict(obj)]
                self._base[site_id] = cursor[1] - 1
                self._states[site_id] = {}
                self._m_append_snapshot.inc()
            else:
                log = self._logs[site_id]
                log.append(dict(obj))
                if len(log) > MAX_LOG:
                    drop = len(log) - MAX_LOG
                    del log[:drop]
                    self._base[site_id] += drop
                self._m_append_delta.inc()
            self._tail[site_id] = cursor
            apply_ops_to_bucket(self._states[site_id], obj)
            self._m_puts.inc()
            # Recorded under the lock so the trace's publish order is
            # the stream-append order (the recorder's lock is a leaf).
            if self.recorder is not None:
                self.recorder.record_publish_delta(site_id, obj)
            if self.tracer.enabled:
                args = {"site": site_id, "kind": obj["kind"],
                        "seq": obj["seq"], "stream": obj["stream"]}
                trace_ctx = obj.get("trace")
                if trace_ctx:  # tie the append to the publish's context
                    args.update(trace_ctx)
                self.tracer.event(
                    "store.append", f"store:{self.name}", cat="store", **args
                )

    def get_deltas(
        self, site_id: str, after_seq: int, stream: Optional[str] = None
    ) -> List[dict]:
        """Every retained delta of ``site_id`` with ``seq > after_seq``.

        ``stream`` is the consumer's cursor token: when given, a
        mismatch with the site's current stream raises — sequence
        numbers do not compose across publisher incarnations, so a
        cursor from a previous stream must never be served numbers
        from the new one.  Also raises when the stream cannot be served
        contiguously from ``after_seq`` — unknown site, cursor ahead of
        the tail, or cursor compacted off the log.  On any raise the
        consumer must resync from :meth:`get_state`.
        """
        site_id = str(site_id)
        with self._lock:
            self._check_up()
            self._m_gets.inc()
            tail = self._tail.get(site_id)
            if tail is None:
                self._m_gaps.inc()
                raise DeltaSequenceError(
                    f"{self.name}: no delta stream for {site_id}"
                )
            if stream is not None and stream != tail[0]:
                self._m_gaps.inc()
                raise DeltaSequenceError(
                    f"{self.name}: {site_id} is on stream {tail[0]}, "
                    f"cursor follows {stream}"
                )
            base = self._base[site_id]
            if after_seq > tail[1] or after_seq < base:
                self._m_gaps.inc()
                raise DeltaSequenceError(
                    f"{self.name}: {site_id} cursor {after_seq} outside "
                    f"retained log ({base}..{tail[1]}]"
                )
            return [dict(obj) for obj in self._logs[site_id][after_seq - base:]]

    def get_state(self, site_id: str) -> Tuple[str, int, Dict[str, dict]]:
        """The materialised ``(stream, tail_seq, bucket)`` checkpoint
        for ``site_id`` — the full-resync read of the delta protocol."""
        site_id = str(site_id)
        with self._lock:
            self._check_up()
            self._m_gets.inc()
            tail = self._tail.get(site_id)
            if tail is None:
                self._m_gaps.inc()
                raise DeltaSequenceError(
                    f"{self.name}: no delta stream for {site_id}"
                )
            state = {t: dict(b) for t, b in self._states[site_id].items()}
            return tail[0], tail[1], state

    def delta_tail(self, site_id: str) -> Optional[Cursor]:
        """The ``(stream, seq)`` tail of ``site_id``'s stream, if any —
        a cheap divergence probe (no payloads cross the wire), used by
        the replicated facade's read-repair."""
        with self._lock:
            self._check_up()
            return self._tail.get(str(site_id))

    def delta_sites(self) -> List[str]:
        """Sites with a live delta stream, in first-publish order."""
        with self._lock:
            self._check_up()
            return list(self._tail)

    # -- lifecycle -----------------------------------------------------------
    def delete(self, site_id: str) -> None:
        """Withdraw ``site_id``'s delta stream entirely."""
        site_id = str(site_id)
        with self._lock:
            self._check_up()
            self._logs.pop(site_id, None)
            self._base.pop(site_id, None)
            self._tail.pop(site_id, None)
            self._states.pop(site_id, None)

    def clear(self) -> None:
        with self._lock:
            self._logs.clear()
            self._base.clear()
            self._tail.clear()
            self._states.clear()


class ReplicatedStore:
    """Redis-style replication: write-through to all live replicas, read
    from the first reachable one.

    The store only becomes unavailable when *every* replica is down.
    Under the delta protocol a recovered-stale replica is healed by
    *requesting a checkpoint* on its behalf — a snapshot synthesised
    from a healthy replica's materialised state — on two triggers:

    * **write-repair**: the next write-through sees the stale replica
      reject the append with a sequence/stream mismatch;
    * **read-repair**: every delta read probes the other live
      replicas' stream tails (a cheap ``(stream, seq)`` comparison, no
      payloads) and heals divergents — this is what covers *idle*
      sites, which publish nothing while unchanged and so would never
      trigger write-repair.

    A stale replica can therefore only serve a divergent view while no
    healthy replica is reachable at all — the double-fault case, where
    the divergence still surfaces as a stream mismatch (checkpoint
    resync) rather than silently, because sequence numbers carry their
    stream token.
    """

    def __init__(
        self,
        replicas: Sequence[InMemoryStore],
        recorder=None,
        metrics=None,
        tracer=None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas: List[InMemoryStore] = list(replicas)
        # One publish record per *logical* write, however many replicas
        # acknowledged it (leave the replicas' own recorders unset).
        self.recorder = recorder
        # Serialises write-through so replica contents and the recorded
        # publish order cannot interleave across concurrent writers.
        self._put_lock = threading.Lock()
        # Heal/failover telemetry, per replica.
        if metrics is None:
            metrics = NULL_REGISTRY
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._m_heals = metrics.counter(
            "repro_replica_heals_total",
            "Stale replicas healed with a synthesised checkpoint, by "
            "replica and trigger.",
            labels=("replica", "trigger"),
        )
        self._m_failovers = metrics.counter(
            "repro_replica_failovers_total",
            "Reads served after skipping this unreachable/divergent "
            "replica.",
            labels=("replica",),
        )

    # -- delta-protocol operations -------------------------------------------
    def append_delta(self, site_id: str, obj: Mapping) -> None:
        with self._put_lock:
            accepted: Optional[InMemoryStore] = None
            gapped: List[InMemoryStore] = []
            for replica in self.replicas:
                try:
                    replica.append_delta(site_id, obj)
                    if accepted is None:
                        accepted = replica
                except StoreUnavailableError:
                    continue
                except DeltaSequenceError:
                    gapped.append(replica)
            if accepted is None:
                if gapped:
                    # Every live replica disagrees with the publisher's
                    # history (e.g. failover onto recovered-stale
                    # replicas only): the publisher must checkpoint.
                    raise DeltaSequenceError(
                        f"no replica accepted {site_id} delta "
                        f"seq {obj['seq']}"
                    )
                raise StoreUnavailableError("all replicas down")
            if gapped:
                self._heal(site_id, accepted, gapped, trigger="write")
            if self.recorder is not None:
                self.recorder.record_publish_delta(str(site_id), obj)

    def _heal(
        self,
        site_id: str,
        source: InMemoryStore,
        targets: List[InMemoryStore],
        trigger: str = "write",
    ) -> None:
        """Replica recovery = request checkpoint: overwrite the stale
        replicas' streams with a snapshot of a healthy one's state."""
        try:
            stream, seq, state = source.get_state(site_id)
        except (StoreUnavailableError, DeltaSequenceError):
            return
        checkpoint = make_snapshot(seq, state, stream)
        for replica in targets:
            try:
                replica.append_delta(site_id, checkpoint)
                self._m_heals.inc(replica=replica.name, trigger=trigger)
                if self.tracer.enabled:
                    self.tracer.event(
                        "replica.heal", f"store:{replica.name}", cat="store",
                        site=site_id, trigger=trigger, seq=seq, stream=stream,
                    )
            except StoreUnavailableError:
                continue

    def _read_repair(self, site_id: str) -> None:
        """Heal replicas whose stream tail diverges from the newest one.

        Cheap when healthy (one ``(stream, seq)`` probe per replica, no
        payloads); covers idle sites, which never append and so never
        hit the write-repair path.  The heal *source* is the replica
        with the lexicographically greatest ``(stream, seq)`` tail —
        stream tokens are time-prefixed, so a newer publisher
        incarnation outranks an older one and, within one stream, the
        higher sequence number is definitionally more recent.  The
        replica that answered the read may itself be the stale one; it
        gets healed like any other — as is a replica with *no* stream
        for the site at all (it was down for the site's whole life so
        far).
        """
        reachable: List[Tuple[Optional[Cursor], InMemoryStore]] = []
        present: List[Tuple[Cursor, InMemoryStore]] = []
        for replica in self.replicas:
            try:
                tail = replica.delta_tail(site_id)
            except StoreUnavailableError:
                continue
            reachable.append((tail, replica))
            if tail is not None:
                present.append((tail, replica))
        if not present or len({tail for tail, _ in reachable}) <= 1:
            return  # absent everywhere, or all in agreement
        best_tail, best = max(present, key=lambda entry: entry[0])
        stale = [replica for tail, replica in reachable if tail != best_tail]
        with self._put_lock:
            self._heal(site_id, best, stale, trigger="read")

    def get_deltas(
        self, site_id: str, after_seq: int, stream: Optional[str] = None
    ) -> List[dict]:
        return self._read_with_failover(
            site_id, lambda replica: replica.get_deltas(site_id, after_seq, stream)
        )

    def get_state(self, site_id: str) -> Tuple[str, int, Dict[str, dict]]:
        return self._read_with_failover(
            site_id, lambda replica: replica.get_state(site_id)
        )

    def _read_with_failover(self, site_id: str, read):
        """Serve a delta read from the first replica that *can*.

        A :class:`DeltaSequenceError` fails over to the next replica
        rather than propagating — the raising replica may simply have
        missed the site's stream (or its tail) while down, and another
        replica can serve it.  Only when every reachable replica raises
        does the error reach the consumer (a genuine gap: resync), and
        read-repair runs either way so divergent replicas heal.
        """
        last_gap: Optional[DeltaSequenceError] = None
        for replica in self.replicas:
            try:
                out = read(replica)
            except StoreUnavailableError:
                self._m_failovers.inc(replica=replica.name)
                continue
            except DeltaSequenceError as exc:
                self._m_failovers.inc(replica=replica.name)
                last_gap = exc
                continue
            self._read_repair(site_id)
            return out
        if last_gap is not None:
            self._read_repair(site_id)
            raise last_gap
        raise StoreUnavailableError("all replicas down")

    def delta_sites(self) -> List[str]:
        """The union of every live replica's site listing.

        A single replica's listing is not authoritative: one that was
        down for a site's first publish has no stream for it at all,
        and serving its view alone would make checkers drop the site —
        hiding its blocked tasks.  Order is first-reachable-replica
        order with later replicas' extras appended.
        """
        sites: List[str] = []
        seen: set = set()
        reachable = False
        for replica in self.replicas:
            try:
                listing = replica.delta_sites()
            except StoreUnavailableError:
                continue
            reachable = True
            for site in listing:
                if site not in seen:
                    seen.add(site)
                    sites.append(site)
        if not reachable:
            raise StoreUnavailableError("all replicas down")
        return sites

    def delete(self, site_id: str) -> None:
        reached = False
        for replica in self.replicas:
            try:
                replica.delete(site_id)
                reached = True
            except StoreUnavailableError:
                continue
        if not reached:
            raise StoreUnavailableError("all replicas down")
