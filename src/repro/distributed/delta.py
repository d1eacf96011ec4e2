"""The delta wire protocol: carry O(change) across the store boundary.

PR 4 made *local* continuous checking O(change) by feeding blocked-status
deltas into a maintained analysis graph; the distributed path still
shipped whole buckets — every site re-published its entire blocked set
each period and every checker re-merged the full global view each round,
so distributed check cost grew with cluster size, not with what changed.
This module is the shared core of the protocol that fixes it, used by
**both** the live ``Site``/store path and offline replay so the two
derivations cannot drift apart.

**Wire format.**  One delta is a plain JSON-able object::

    {"v": 3, "stream": "d41c2a0f", "seq": 7, "kind": "delta",
     "set":   {task: encoded-status, ...},   # newly blocked, or status changed
     "clear": [task, ...],                   # no longer blocked
     "trace": {"span": "9f2c..."}}           # optional causal context

``v`` is :data:`PROTOCOL_VERSION`, the only version readers accept.
The optional ``trace`` member is a flat object of scalar values
carrying the publisher's causal context (a deterministic span id
derived from site/stream/seq — never wall clock).  Consumers ignore it
for state materialisation, so a delta applies identically with or
without it.

``seq`` is a per-site monotonic sequence number starting at 1; the
stream order is the semantics, so consumers validate contiguity and a
gap means "request a checkpoint".  ``stream`` identifies the publisher
*incarnation* (the replication-id idea: a fresh token per
:class:`DeltaPublisher`): sequence numbers only compose within one
stream, so a consumer whose cursor came from a previous incarnation —
or from a divergent replica — can never silently splice the new
stream's deltas onto old state just because the numbers happen to
line up; any stream mismatch is a :class:`DeltaSequenceError` and
resolves like every other divergence, with a checkpoint.
``kind: "snapshot"`` marks a full checkpoint: ``set`` carries the
site's whole bucket, ``clear`` is empty, and a
snapshot is accepted at *any* position — it resets the stream (first
publish, periodic checkpoint cadence, and every resync path all reuse
it).  The per-status encoding is
:func:`repro.trace.events.status_to_obj` (sorted, canonical), so a
delta recorded into a trace replays bit-identically.

**Roles.**

* :class:`DeltaPublisher` — the producer half: diff the site's current
  encoded bucket against the last *committed* publication, emit the
  delta (or ``None`` when nothing changed), checkpoint at least every
  :data:`CHECKPOINT_EVERY` deltas.  ``prepare``/``commit`` are split so a
  store outage between them retries the same logical change next round
  without burning sequence numbers.
* :class:`DeltaMergeState` — the consumer half: maintain the merged
  global view as per-site buckets plus a fed checker (a
  :class:`~repro.core.checker.DeadlockChecker` or its incremental
  subclass, fed through ``set_blocked``/``clear``), applying each delta
  as task-level ops instead of re-merging every bucket.  Tracks
  cross-site ownership so a task published by several sites raises the
  same error, at the same time (check time), as the plain
  :func:`merge_buckets` — a transient overlap that resolves within one
  cadence window is tolerated.
* :func:`apply_delta_obj` / :func:`merge_buckets` — the plain reference
  fold: one delta into a ``site -> {task: blob}`` view with the same gap
  validation, and the decode-everything merge of such a view.  The
  publisher's committed state runs the former; the tests hold the
  merge view against both.

**Determinism.**  A delta consumer materialises the same *set* of
statuses as :func:`merge_buckets` over the stores' materialised
states, and a report is a function of that set alone (Definitions
3.1/3.2: a deadlock is a property of the blocked set): the checker
orders every report field canonically.  Site order, bucket order, a
delta's ``set`` key order and a checkpoint that republishes a bucket
shuffled therefore change no report, which is what keeps distributed
detection byte-identical across live and replayed derivations, both
codecs and both checker classes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.dependency import DependencySnapshot
from repro.core.events import BlockedStatus

#: The delta wire-protocol version (the ``v`` field), written by every
#: publisher and the only one readers accept.
PROTOCOL_VERSION = 3

#: The delta kinds the protocol defines (the ``kind`` field).
DELTA_KINDS = ("delta", "snapshot")

#: Publisher checkpoint cadence ceiling: a full snapshot at least every
#: N deltas bounds both store log length and the cost of a cold
#: consumer catching up.
CHECKPOINT_EVERY = 64

#: Adaptive cadence target: checkpoint once the bytes shipped as deltas
#: since the last snapshot reach this multiple of the snapshot's own
#: wire size — so catch-up replay cost stays proportional to one
#: snapshot regardless of how small individual deltas are.
CHECKPOINT_RATIO = 4.0


class DeltaSequenceError(RuntimeError):
    """A delta stream cannot be extended or served contiguously.

    Raised by stores when an appended delta does not extend the tail
    (the publisher and the store disagree about history — e.g. a
    failover to a stale replica), and by consumers/stores when a read
    cursor falls outside the retained log.  The protocol-level answer
    is always the same: fall back to a full snapshot checkpoint.
    """


# ---------------------------------------------------------------------------
# wire helpers
# ---------------------------------------------------------------------------
def encode_bucket(statuses: Mapping) -> Dict[str, dict]:
    """Encode a ``task -> BlockedStatus`` mapping to wire blobs.

    The per-status form is the canonical (sorted) trace encoding, so
    publisher diffs compare stable representations.  (Imported lazily:
    ``repro.trace`` pulls the replay engine in through its package
    init, which imports this module — a top-level import would cycle.)
    """
    from repro.trace.events import status_to_obj

    return {str(task): status_to_obj(status) for task, status in statuses.items()}


def decode_blob(blob: Mapping) -> BlockedStatus:
    """One wire blob back to a :class:`BlockedStatus`."""
    from repro.trace.events import status_from_obj

    return status_from_obj(blob)


def wire_size(obj) -> int:
    """Bytes-on-the-wire proxy for one payload (compact JSON length).

    The publisher's adaptive checkpoint cadence weighs deltas against
    snapshots with it.
    """
    return len(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def fresh_stream_token() -> str:
    """A stream (publisher-incarnation) token: unique per restart.

    Fixed-width time-prefixed hex, so tokens from successive
    incarnations of one publisher compare lexicographically in birth
    order — what lets replica read-repair pick the *newest* stream as
    the heal source when divergent replicas hold different
    incarnations.  (Deterministic producers that pass their own fixed
    tokens never replicate, so the ordering property is not load-
    bearing for them.)
    """
    import time
    import uuid

    return f"{time.time_ns():016x}{uuid.uuid4().hex[:8]}"


def make_snapshot(
    seq: int,
    bucket: Mapping[str, Mapping],
    stream: str,
    trace: Optional[Mapping] = None,
) -> dict:
    """A full-checkpoint delta at ``stream``/``seq`` carrying ``bucket``
    whole (plus the optional ``trace`` causal context)."""
    obj = {
        "v": PROTOCOL_VERSION,
        "stream": str(stream),
        "seq": seq,
        "kind": "snapshot",
        "set": {task: dict(blob) for task, blob in bucket.items()},
        "clear": [],
    }
    if trace is not None:
        obj["trace"] = dict(trace)
    return obj


def delta_trace_context(site_id: str, stream: str, seq: int) -> dict:
    """The causal context a tracing publisher stamps on one delta.

    The span id is derived from the wire coordinates themselves
    (site/stream/seq), so the same logical delta carries the same id in
    every process, recording, and replay — no wall clock involved.
    """
    from repro.obs.tracing import span_id

    return {"span": span_id("delta", site_id, stream, seq)}


def diff_buckets(
    old: Mapping[str, Mapping], new: Mapping[str, Mapping]
) -> Tuple[Dict[str, dict], List[str]]:
    """Classify the change between two encoded buckets into wire ops.

    Returns ``(set, clear)``: tasks whose blob is new or changed, in
    ``new``'s order, and tasks gone.  ``clear`` is sorted for a
    canonical wire form.
    """
    set_ops = {t: dict(b) for t, b in new.items() if old.get(t) != b}
    clear_ops = sorted(t for t in old if t not in new)
    return set_ops, clear_ops


#: A consumer's position in one site's stream: (stream token, seq).
Cursor = Tuple[str, int]


def validate_extends(cursor: Optional[Cursor], site: str, obj: Mapping) -> Cursor:
    """Check that ``obj`` legally extends ``cursor``; return the new one.

    The single validation rule every consumer of a delta stream runs
    (stores, merge views, replay, the publisher's committed state):
    snapshots are accepted anywhere and reset the stream; ordinary
    deltas must carry the cursor's stream token *and* the next sequence
    number.  Anything else — a gap, a foreign stream incarnation, a
    delta with no base — raises :class:`DeltaSequenceError`.
    """
    stream, seq = str(obj["stream"]), int(obj["seq"])
    if obj["kind"] == "snapshot":
        # Shape check at the shared gate: a snapshot is its ``set``
        # section, so one that also names tasks to clear is refused
        # loudly rather than read one way by one consumer and another
        # way by the next.
        if obj["clear"]:
            raise ValueError(
                f"site {site}: snapshot deltas carry only a set section"
            )
        return stream, seq
    if cursor is None or cursor[0] != stream or seq != cursor[1] + 1:
        raise DeltaSequenceError(
            f"site {site}: delta {stream}/{seq} does not extend "
            f"{cursor[0] + '/' + str(cursor[1]) if cursor else 'empty stream'}"
        )
    return stream, seq


def apply_ops_to_bucket(bucket: Dict[str, dict], obj: Mapping) -> None:
    """Mutate one encoded bucket with a (validated) delta's ops.

    The single materialisation rule: a snapshot replaces the bucket
    wholesale; an ordinary delta pops ``clear`` and writes ``set``.
    The bucket's content is what the stores, the replay engines and
    the publisher agree on; its key order carries no meaning.
    """
    if obj["kind"] == "snapshot":
        bucket.clear()
    for task in obj["clear"]:
        bucket.pop(task, None)
    for task, blob in obj["set"].items():
        bucket[task] = dict(blob)


def apply_delta_obj(
    buckets: Dict[str, Dict[str, dict]],
    cursors: Dict[str, Cursor],
    site: str,
    obj: Mapping,
) -> None:
    """Fold one delta into a materialised ``site -> bucket`` view:
    :func:`validate_extends` + :func:`apply_ops_to_bucket` + cursor
    advance — what the publisher's committed state runs, and the plain
    fold the tests compare :class:`DeltaMergeState` against."""
    cursor = validate_extends(cursors.get(site), site, obj)
    apply_ops_to_bucket(buckets.setdefault(site, {}), obj)
    cursors[site] = cursor


# ---------------------------------------------------------------------------
# producer half
# ---------------------------------------------------------------------------
class DeltaPublisher:
    """Derives one site's delta stream from successive encoded buckets.

    ``prepare(bucket)`` returns the next wire object (or ``None`` when
    nothing changed and no checkpoint is due) *without* advancing state;
    ``commit(obj)`` advances it after the store accepted the write.  A
    failed append therefore re-derives the same logical change next
    round — changes accumulate into one delta instead of being lost.
    The first publication is always a snapshot (consumers need a base),
    and further snapshots keep store logs bounded so cold readers catch
    up in one read.  Cadence is **adaptive** by default: a checkpoint
    is due once the bytes committed as deltas since the last snapshot
    reach :data:`CHECKPOINT_RATIO` times the current snapshot's own wire
    size — small, chatty deltas earn a long cadence, deltas nearly as
    big as the bucket checkpoint almost immediately.
    :data:`CHECKPOINT_EVERY` stays as the count ceiling either way, and
    ``adaptive=False`` (the corpus generator's fixed cadence) keeps that
    ceiling alone.

    ``stream`` is the incarnation token stamped on every delta: by
    default a fresh random one (a restarted site must not alias its
    predecessor's sequence numbers); deterministic producers (the
    corpus generator) pass a fixed token.  With ``carry_trace`` the
    publisher stamps each wire object with its deterministic causal
    context (:func:`delta_trace_context`).
    """

    def __init__(
        self,
        site_id: str,
        stream: Optional[str] = None,
        adaptive: bool = True,
        carry_trace: bool = False,
    ) -> None:
        self.site_id = str(site_id)
        self.stream = str(stream) if stream is not None else fresh_stream_token()
        self.adaptive = bool(adaptive)
        self.carry_trace = bool(carry_trace)
        self.seq = 0
        self._last: Dict[str, dict] = {}
        self._since_checkpoint = 0
        #: Wire bytes committed as ordinary deltas since the last
        #: snapshot — the adaptive cadence's accumulator.
        self._delta_bytes = 0

    def _trace(self, seq: int) -> Optional[dict]:
        if not self.carry_trace:
            return None
        return delta_trace_context(self.site_id, self.stream, seq)

    def _checkpoint_due(self, delta_obj: Mapping, bucket: Mapping) -> bool:
        if self._since_checkpoint + 1 >= CHECKPOINT_EVERY:
            return True
        if not self.adaptive:
            return False
        snapshot_size = max(1, wire_size({t: dict(b) for t, b in bucket.items()}))
        pending = self._delta_bytes + wire_size(delta_obj)
        return pending >= CHECKPOINT_RATIO * snapshot_size

    def prepare(self, bucket: Mapping[str, Mapping]) -> Optional[dict]:
        """The next delta for ``bucket``, or ``None`` if nothing to say."""
        if self.seq == 0:
            return make_snapshot(1, bucket, self.stream, trace=self._trace(1))
        set_ops, clear_ops = diff_buckets(self._last, bucket)
        if not (set_ops or clear_ops):
            return None
        obj = {
            "v": PROTOCOL_VERSION,
            "stream": self.stream,
            "seq": self.seq + 1,
            "kind": "delta",
            "set": set_ops,
            "clear": clear_ops,
        }
        if self._checkpoint_due(obj, bucket):
            return make_snapshot(
                self.seq + 1, bucket, self.stream, trace=self._trace(self.seq + 1)
            )
        trace = self._trace(self.seq + 1)
        if trace is not None:
            obj["trace"] = trace
        return obj

    def prepare_checkpoint(self, bucket: Mapping[str, Mapping]) -> dict:
        """A forced snapshot at the next sequence number (gap recovery)."""
        return make_snapshot(
            self.seq + 1, bucket, self.stream, trace=self._trace(self.seq + 1)
        )

    def commit(self, obj: Mapping) -> None:
        """Advance committed state to include ``obj`` (store accepted it)."""
        buckets = {self.site_id: self._last}
        cursors = {self.site_id: (self.stream, self.seq)}
        apply_delta_obj(buckets, cursors, self.site_id, obj)
        self._last = buckets[self.site_id]
        self.seq = cursors[self.site_id][1]
        if obj["kind"] == "snapshot":
            self._since_checkpoint = 0
            self._delta_bytes = 0
        else:
            self._since_checkpoint += 1
            self._delta_bytes += wire_size(obj)


# ---------------------------------------------------------------------------
# consumer half
# ---------------------------------------------------------------------------
def _merge_statuses(per_site) -> DependencySnapshot:
    """Disjoint union of ``(site, task -> BlockedStatus)`` pairs.
    Task ids are globally unique; a duplicate across sites is a
    publishing bug and raises — the one error text behind both
    :func:`merge_buckets` and the delta view, so replays of bucket and
    delta traces fail identically."""
    merged: Dict[str, BlockedStatus] = {}
    for site_id, statuses in per_site:
        overlap = merged.keys() & statuses.keys()
        if overlap:
            raise ValueError(
                f"tasks {sorted(overlap)} published by several sites "
                f"(last: {site_id})"
            )
        merged.update(statuses)
    return DependencySnapshot(statuses=merged)


def merge_buckets(buckets: Mapping[str, Mapping[str, Mapping]]) -> DependencySnapshot:
    """Merge per-site encoded buckets into one global snapshot,
    decoding every blob; duplicates across sites raise."""
    return _merge_statuses(
        (site_id, {str(t): decode_blob(blob) for t, blob in bucket.items()})
        for site_id, bucket in buckets.items()
    )


class DeltaMergeState:
    """The consumer's maintained global view, fed task-level deltas.

    One instance backs one checker: per-site encoded buckets, per-site
    stream cursors, and cross-site ownership for conflict detection.
    The decoded statuses live in one place, the checker's store: each
    changed blob is decoded once, on arrival, and handed to the
    checker.  Applying a delta costs O(ops), not O(cluster): this is
    the property the whole protocol exists to carry across the wire.

    The checker is fed one ``set_blocked``/``clear`` per task-level op,
    as each op is applied; it prices its own maintenance between two
    checks, so the view opens no window.  The view sets nothing else
    on it: a check analyses the checker's own store, which
    holds the merged statuses in whatever order they arrived — a
    report does not depend on it.  A cross-site duplicate is refused by
    :meth:`raise_on_conflict`, which every consumer calls before
    ``check()``.
    """

    def __init__(self, checker) -> None:
        self.checker = checker
        self.buckets: Dict[str, Dict[str, dict]] = {}
        self.cursors: Dict[str, Cursor] = {}
        self._owners: Dict[str, Set[str]] = {}
        self._conflicted: Set[str] = set()
        #: Task-level operations applied since construction — the
        #: "per-check merge cost" quantity of the delta benchmark.
        self.ops_applied = 0

    # -- introspection -------------------------------------------------
    def sites(self) -> List[str]:
        return list(self.buckets)

    def cursor(self, site: str) -> Optional[Cursor]:
        return self.cursors.get(site)

    def cursor_seq(self, site: str) -> int:
        cursor = self.cursors.get(site)
        return 0 if cursor is None else cursor[1]

    @property
    def conflicted(self) -> frozenset:
        return frozenset(self._conflicted)

    def merged_snapshot(self) -> DependencySnapshot:
        """The global view, equal to (and failing like)
        :func:`merge_buckets`: the checker's statuses, with nothing left
        to decode."""
        table = self.checker.dependency.snapshot().statuses
        return _merge_statuses(
            (site, {task: table[task] for task in bucket})
            for site, bucket in self.buckets.items()
        )

    def raise_on_conflict(self) -> None:
        """Reject cross-site duplication at check time, identically to
        :func:`merge_buckets` (same error text)."""
        if self._conflicted:
            self.merged_snapshot()

    # -- application ---------------------------------------------------
    def apply_obj(self, site: str, obj: Mapping) -> None:
        """Fold one wire delta into the view and the fed checker.

        Validation is the shared :func:`validate_extends` rule; the op
        walk mirrors :func:`apply_ops_to_bucket` (same order: clear,
        then set) but interleaves the per-task ownership and
        checker feeding that the plain bucket fold has no need for.
        """
        site = str(site)
        cursor = validate_extends(self.cursors.get(site), site, obj)
        if obj["kind"] == "snapshot":
            self.apply_bucket(site, obj["set"])
        else:
            # Decode everything before mutating anything: a malformed
            # blob must leave the view, the cursor and the fed checker
            # untouched (also on the consumer's retry).
            writes = [
                (task, dict(blob), decode_blob(blob))
                for task, blob in obj["set"].items()
            ]
            bucket = self.buckets.setdefault(site, {})
            for task in obj["clear"]:
                if task in bucket:
                    bucket.pop(task)
                    self._remove_task(site, task)
            for task, blob, status in writes:
                bucket[task] = blob
                self._set_task(site, task, status)
        self.cursors[site] = cursor

    def apply_bucket(self, site: str, new_bucket: Mapping[str, Mapping]) -> None:
        """Replace ``site``'s bucket wholesale (a snapshot delta, a
        checkpoint resync, a withdrawn site), diffing
        against the previous bucket so only changed tasks touch the
        checker."""
        site = str(site)
        new = {str(t): dict(b) for t, b in new_bucket.items()}
        old = self.buckets.get(site, {})
        # An unchanged blob's status stays in the checker; the changed
        # ones decode here, before anything is mutated.
        changed = {
            task: decode_blob(blob)
            for task, blob in new.items() if old.get(task) != blob
        }
        self.buckets[site] = new
        for task in old:
            if task not in new:
                self._remove_task(site, task)
        for task, status in changed.items():
            self._set_task(site, task, status)

    def reset_site(
        self, site: str, stream: str, seq: int, state: Mapping[str, Mapping]
    ) -> None:
        """Checkpoint resync: replace ``site``'s view wholesale and
        fast-forward its cursor (the consumer detected a gap or a
        foreign stream and requested a snapshot)."""
        self.apply_bucket(site, state)
        self.cursors[str(site)] = (str(stream), seq)

    def drop_site(self, site: str) -> None:
        """The site withdrew (graceful stop deleted its stream): clear
        every status it owned from the merged view."""
        site = str(site)
        if site in self.buckets:
            self.apply_bucket(site, {})
        self.buckets.pop(site, None)
        self.cursors.pop(site, None)

    # -- task-level primitives (the shared ownership semantics) --------
    def _remove_task(self, site: str, task: str) -> None:
        self.ops_applied += 1
        owners = self._owners.get(task, set())
        owners.discard(site)
        if not owners:
            self.checker.clear(task)
            self._owners.pop(task, None)
        elif len(owners) == 1:
            # Conflict resolved by this removal: the survivor's current
            # status is the merged truth again (only a publishing bug
            # gets here, so its blob is decoded again).
            self._conflicted.discard(task)
            (survivor,) = owners
            self.checker.set_blocked(
                task, decode_blob(self.buckets[survivor][task])
            )

    def _set_task(self, site: str, task: str, status: BlockedStatus) -> None:
        self.ops_applied += 1
        self.checker.set_blocked(task, status)
        owners = self._owners.setdefault(task, set())
        owners.add(site)
        if len(owners) > 1:
            # While a task is conflicted its delta state is last-writer;
            # the caller rejects at the next check, exactly when
            # merge_buckets would.
            self._conflicted.add(task)
