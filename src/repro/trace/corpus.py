"""Scenario corpus generator: parameterised traces without threads.

Live runs are bounded by thread scheduling — a few dozen tasks, wall
clock pacing, nondeterministic interleavings.  The corpus generator
side-steps all of it: it writes the trace a run *would have produced*
directly, from closed-form schedules, so scenario scale is limited by
disk, not by the GIL.  Every ROADMAP direction that needs "many diverse
synchronisation scenarios" (regression corpora, engine differentials,
throughput work) replays against these files.

A :class:`ScenarioSpec` spans the grid the ISSUE calls for — cycle
length × task count (phaser fan-out) × site count — with two phases:

1. **warm-up rounds**: ``rounds`` deadlock-free SPMD barrier steps over
   all tasks (advance + block + unblock on a shared phaser), providing
   bulk events that must *not* trigger reports at any prefix;
2. **the knot**: ``cycle_len`` phasers ``c0..c{L-1}`` with ``fan_out``
   tasks per edge group; group ``i`` blocks on ``ci@1`` while still at
   phase 0 on ``c{i-1}`` — the classic crossed-barrier cycle,
   generalised.  With ``deadlock=False`` the back edge is broken (group
   0 has already arrived at ``c{L-1}``), leaving an acyclic chain.

With ``sites > 1`` the blocked statuses flow through ``publish_delta``
records (tasks round-robined over sites, each status change derived
into a delta by the same :class:`~repro.distributed.delta.DeltaPublisher`
the live ``Site`` path runs — first publish per site is a snapshot
checkpoint, subsequent ones carry only the changed task) — the
distributed one-phase detection under the delta wire protocol, replayed
from a file.

Six spec families share :func:`build_trace` and the :data:`FAMILIES`
table (spec class, builder, grids, ``gen`` flags): :class:`ScenarioSpec`
(the cycle grid), :class:`ChurnSpec` (dynamic membership),
:class:`AioSpec` (the asyncio backend's high-task-count shapes —
thousand-task rings and whole-pool churn), :class:`BoundedSpec`
(producer-consumer pipelines over bounded phasers — signal/ack clock
pairs, deadlocking with every buffer *full*), :class:`KnotSpec`
(mixed lock/barrier knots — locks held across a barrier wait, the
JArmus ``ReentrantLock`` instrumentation's scenario class) and
:class:`NearMissSpec` (ok-traces whose blocked statuses close a cycle
only under an HB-consistent reordering — the predictor's ground truth,
with true-negative controls).

The schedules are arranged so that in a ``check_every=1`` detection
replay a report appears exactly at the record that first closes the
knot — the closing group's first block (its fan-out siblings repeat the
same cycle edge) — and never before: generated traces are prefix-safe
ground truth.
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.events import BlockedStatus, Event
from repro.trace import events as ev
from repro.trace.codec import save_trace
from repro.trace.events import Trace, TraceHeader, status_to_obj
from repro.trace.parallel import fan_out
from repro.trace.replay import replay


@dataclass(frozen=True)
class ScenarioSpec:
    """One point of the scenario grid.

    ``fan_out`` is the number of tasks per cycle-edge group (the phaser
    fan-out); total task count is ``cycle_len * fan_out``.
    """

    cycle_len: int = 2
    fan_out: int = 1
    sites: int = 1
    rounds: int = 0
    deadlock: bool = True

    def __post_init__(self) -> None:
        if self.cycle_len < 2:
            raise ValueError("cycle_len must be at least 2")
        if self.fan_out < 1 or self.sites < 1 or self.rounds < 0:
            raise ValueError("fan_out/sites must be >= 1, rounds >= 0")

    @property
    def n_tasks(self) -> int:
        return self.cycle_len * self.fan_out

    @property
    def name(self) -> str:
        verdict = "dl" if self.deadlock else "ok"
        return (
            f"cycle-L{self.cycle_len}-F{self.fan_out}"
            f"-S{self.sites}-R{self.rounds}-{verdict}"
        )


class _Emitter:
    """Builds the record stream, routing blocked-status changes either
    to local ``block``/``unblock`` records (one site) or to per-site
    ``publish_delta`` records (several sites), derived by the same
    :class:`~repro.distributed.delta.DeltaPublisher` the live ``Site``
    publishing loop runs."""

    def __init__(self, sites: int) -> None:
        from repro.distributed.delta import DeltaPublisher

        self.sites = sites
        self.records: List[ev.TraceRecord] = []
        self._seq = 0
        self._buckets: Dict[str, Dict[str, dict]] = {
            self._site_name(i): {} for i in range(sites)
        }
        # Fixed stream tokens and fixed cadence: generated corpora must
        # be byte-pinnable, so both the publisher's random-incarnation
        # default and the size-sensitive adaptive checkpoint policy are
        # overridden — the pinned delta/checkpoint schedule must not
        # move when cadence heuristics are tuned.
        self._publishers: Dict[str, DeltaPublisher] = {
            name: DeltaPublisher(name, stream=name, adaptive=False)
            for name in self._buckets
        }

    def _site_name(self, index: int) -> str:
        return f"site{index}"

    def _site_of(self, task_index: int) -> str:
        return self._site_name(task_index % self.sites)

    def _next(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def register(self, task: str, phaser: str, phase: int) -> None:
        self.records.append(ev.register(self._next(), task, phaser, phase))

    def advance(self, task: str, phaser: str, phase: int) -> None:
        self.records.append(ev.advance(self._next(), task, phaser, phase))

    def _publish_site(self, site: str) -> None:
        publisher = self._publishers[site]
        delta = publisher.prepare(self._buckets[site])
        assert delta is not None, "emitter publishes only on change"
        publisher.commit(delta)
        self.records.append(ev.publish_delta(self._next(), site, delta))

    def block(self, task_index: int, task: str, status: BlockedStatus) -> None:
        if self.sites == 1:
            self.records.append(ev.block(self._next(), task, status))
            return
        site = self._site_of(task_index)
        self._buckets[site][task] = status_to_obj(status)
        self._publish_site(site)

    def unblock(self, task_index: int, task: str) -> None:
        if self.sites == 1:
            self.records.append(ev.unblock(self._next(), task))
            return
        site = self._site_of(task_index)
        self._buckets[site].pop(task, None)
        self._publish_site(site)


def scenario_trace(spec: ScenarioSpec) -> Trace:
    """Generate the full trace for ``spec`` (see the module docstring)."""
    emit = _Emitter(spec.sites)
    tasks = [
        (g, j, f"g{g}t{j}")
        for g in range(spec.cycle_len)
        for j in range(spec.fan_out)
    ]
    barrier = "bar"

    # Membership context: every task joins the warm-up barrier and its
    # group's two cycle phasers at phase 0.
    for g, j, name in tasks:
        if spec.rounds:
            emit.register(name, barrier, 0)
        emit.register(name, f"c{g}", 0)
        emit.register(name, f"c{(g - 1) % spec.cycle_len}", 0)

    # Phase 1: deadlock-free SPMD warm-up rounds on the shared barrier.
    for r in range(1, spec.rounds + 1):
        for idx, (g, j, name) in enumerate(tasks):
            emit.advance(name, barrier, r)
            emit.block(
                idx,
                name,
                BlockedStatus(
                    waits=frozenset({Event(barrier, r)}),
                    registered={barrier: r},
                ),
            )
        for idx, (g, j, name) in enumerate(tasks):
            emit.unblock(idx, name)

    # Phase 2: the knot.  Group i arrives at c{i} (phase 1) and blocks on
    # it while still at phase 0 on c{i-1} — unless the back edge is
    # broken (deadlock=False: group 0 has already arrived at c{L-1}).
    for idx, (g, j, name) in enumerate(tasks):
        prev = f"c{(g - 1) % spec.cycle_len}"
        emit.advance(name, f"c{g}", 1)
        registered = {f"c{g}": 1, prev: 0}
        if not spec.deadlock and g == 0:
            emit.advance(name, prev, 1)
            registered[prev] = 1
        if spec.rounds:
            registered[barrier] = spec.rounds
        emit.block(
            idx,
            name,
            BlockedStatus(
                waits=frozenset({Event(f"c{g}", 1)}), registered=registered
            ),
        )

    if not spec.deadlock:
        # The chain unwinds from its free end; keep the trace tidy.
        for idx, (g, j, name) in reversed(list(enumerate(tasks))):
            emit.unblock(idx, name)

    header = TraceHeader(
        meta={
            "scenario": spec.name,
            "cycle_len": spec.cycle_len,
            "fan_out": spec.fan_out,
            "sites": spec.sites,
            "rounds": spec.rounds,
            "tasks": spec.n_tasks,
            "expect_deadlock": spec.deadlock,
            "generator": "repro.trace.corpus",
        }
    )
    return Trace(header=header, records=tuple(emit.records))


# ---------------------------------------------------------------------------
# dynamic-membership churn family
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnSpec:
    """A scenario whose participant set changes over time.

    A pool of ``pool`` tasks shares one barrier, but only a sliding
    window of ``window`` tasks is registered at any round: each round
    the window advances by one — the oldest member deregisters (it
    simply stops participating; its statuses vanish from the stream)
    and a fresh pool task registers mid-phase.  This is the
    dynamic-membership pattern (phaser ``register``/``drop``) that
    fixed-membership barriers cannot express, and it produces exactly
    the traces the streaming reader must handle: no prefix of the file
    determines the final participant set.

    After the churn rounds, the two newest members tie a crossed
    two-phaser knot (``deadlock=True``) or the same shape with the back
    edge already satisfied (``deadlock=False``).  As with the cycle
    family, a ``check_every=1`` detection replay reports exactly at the
    knot-closing block and never before.
    """

    pool: int = 6
    window: int = 3
    rounds: int = 4
    sites: int = 1
    deadlock: bool = True

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be at least 2 (the knot needs 2 tasks)")
        if self.pool < self.window:
            raise ValueError("pool must be at least the window size")
        if self.rounds < 1 or self.sites < 1:
            raise ValueError("rounds/sites must be >= 1")

    @property
    def n_tasks(self) -> int:
        return self.pool

    @property
    def name(self) -> str:
        verdict = "dl" if self.deadlock else "ok"
        return (
            f"churn-N{self.pool}-W{self.window}"
            f"-R{self.rounds}-S{self.sites}-{verdict}"
        )


def churn_trace(spec: ChurnSpec) -> Trace:
    """Generate the full trace for a :class:`ChurnSpec`."""
    emit = _Emitter(spec.sites)
    names = [f"m{i}" for i in range(spec.pool)]
    barrier = "bar"

    def window_at(round_no: int) -> List[int]:
        start = round_no - 1
        return [(start + k) % spec.pool for k in range(spec.window)]

    prev_active: set = set()
    for r in range(1, spec.rounds + 1):
        active = window_at(r)
        # Mid-phase membership change: tasks joining this round register
        # at the barrier's current phase (including *re*-joins after an
        # absence, once the window wraps the pool); leavers just stop
        # appearing.
        for idx in active:
            if idx not in prev_active:
                emit.register(names[idx], barrier, r - 1)
        prev_active = set(active)
        for idx in active:
            emit.advance(names[idx], barrier, r)
            emit.block(
                idx,
                names[idx],
                BlockedStatus(
                    waits=frozenset({Event(barrier, r)}),
                    registered={barrier: r},
                ),
            )
        for idx in active:
            emit.unblock(idx, names[idx])

    # The knot between the two newest members of the final window.
    a_idx, b_idx = window_at(spec.rounds)[-2:]
    a, b = names[a_idx], names[b_idx]
    for task in (a, b):
        emit.register(task, "p", 0)
        emit.register(task, "q", 0)
    emit.advance(a, "p", 1)
    emit.block(
        a_idx,
        a,
        BlockedStatus(waits=frozenset({Event("p", 1)}), registered={"p": 1, "q": 0}),
    )
    if spec.deadlock:
        emit.advance(b, "q", 1)
        emit.block(
            b_idx,
            b,
            BlockedStatus(
                waits=frozenset({Event("q", 1)}), registered={"p": 0, "q": 1}
            ),
        )
    else:
        # b arrives at p before waiting on q: the back edge is satisfied,
        # so a's wait has no impeder and the knot never closes.
        emit.advance(b, "p", 1)
        emit.advance(b, "q", 1)
        emit.block(
            b_idx,
            b,
            BlockedStatus(
                waits=frozenset({Event("q", 1)}), registered={"p": 1, "q": 1}
            ),
        )
        emit.unblock(a_idx, a)
        emit.unblock(b_idx, b)

    header = TraceHeader(
        meta={
            "scenario": spec.name,
            "family": "churn",
            "pool": spec.pool,
            "window": spec.window,
            "sites": spec.sites,
            "rounds": spec.rounds,
            "tasks": spec.n_tasks,
            "expect_deadlock": spec.deadlock,
            "generator": "repro.trace.corpus",
        }
    )
    return Trace(header=header, records=tuple(emit.records))


# ---------------------------------------------------------------------------
# producer-consumer bounded-phaser family
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoundedSpec:
    """A ring pipeline over bounded signal/ack clock pairs.

    ``stages`` tasks form a ring: stage ``i`` *produces* items on its
    signal clock ``s{i}`` and *consumes* its predecessor's stream
    ``s{i-1}``, acknowledging each item on its ack clock ``a{i}``.  The
    bound is the producer-consumer invariant of a bounded phaser: stage
    ``i`` may signal item ``m`` only while ``m - phase(a{i+1}) <=
    bound`` — once ``bound`` items are unacknowledged it must wait for
    its consumer's ack event.  Consumers observe their input stream
    without registering on it (a pure wait), so an idle consumer never
    impedes the producer's signal clock.

    ``rounds`` warm-up token circulations exercise the *empty* waits
    (each stage briefly blocks for its input, one blocked task at a
    time — cycle-free at every prefix).  Then every stage produces
    ``bound`` items ahead and blocks *full*, waiting for an ack its
    blocked consumer will never give: waits ``a{i+1}@(R+1)`` while
    registered at ``a{i}: R`` — the all-full ring knot, closed by the
    last stage's block.  With ``deadlock=False`` stage 1 first consumes
    (and acks) one item, so its producer's wait has no impeder and the
    ring degenerates to an acyclic chain.
    """

    stages: int = 2
    bound: int = 1
    rounds: int = 1
    sites: int = 1
    deadlock: bool = True

    def __post_init__(self) -> None:
        if self.stages < 2:
            raise ValueError("stages must be at least 2 (the ring needs 2)")
        if self.bound < 1:
            raise ValueError("bound must be at least 1")
        if self.rounds < 0 or self.sites < 1:
            raise ValueError("rounds must be >= 0, sites >= 1")

    @property
    def n_tasks(self) -> int:
        return self.stages

    @property
    def name(self) -> str:
        verdict = "dl" if self.deadlock else "ok"
        return (
            f"bounded-G{self.stages}-B{self.bound}"
            f"-R{self.rounds}-S{self.sites}-{verdict}"
        )


def bounded_trace(spec: BoundedSpec) -> Trace:
    """Generate the full trace for a :class:`BoundedSpec`."""
    emit = _Emitter(spec.sites)
    L, R, bound = spec.stages, spec.rounds, spec.bound
    names = [f"st{i}" for i in range(L)]

    def sig(i: int) -> str:
        return f"s{i % L}"

    def ack(i: int) -> str:
        return f"a{i % L}"

    for i, name in enumerate(names):
        emit.register(name, sig(i), 0)
        emit.register(name, ack(i), 0)

    # Warm-up: one token circulates per round; each stage blocks empty
    # (waiting its input signal), consumes, acks, and signals onwards.
    # At most one task is blocked at any prefix — trivially cycle-free.
    for r in range(1, R + 1):
        emit.advance(names[0], sig(0), r)
        for i in range(1, L):
            emit.block(
                i,
                names[i],
                BlockedStatus(
                    waits=frozenset({Event(sig(i - 1), r)}),
                    registered={sig(i): r - 1, ack(i): r - 1},
                ),
            )
            emit.unblock(i, names[i])
            emit.advance(names[i], ack(i), r)
            emit.advance(names[i], sig(i), r)
        emit.block(
            0,
            names[0],
            BlockedStatus(
                waits=frozenset({Event(sig(L - 1), r)}),
                registered={sig(0): r, ack(0): r - 1},
            ),
        )
        emit.unblock(0, names[0])
        emit.advance(names[0], ack(0), r)

    # Every stage produces ahead until its buffer is full.
    for i, name in enumerate(names):
        for m in range(R + 1, R + bound + 1):
            emit.advance(name, sig(i), m)

    acked = {i: R for i in range(L)}
    if not spec.deadlock:
        # Stage 1 consumes (and acks) one item before anyone blocks:
        # its producer's full-wait then has no impeder.
        emit.block(
            1,
            names[1],
            BlockedStatus(
                waits=frozenset({Event(sig(0), R + 1)}),
                registered={sig(1): R + bound, ack(1): R},
            ),
        )
        emit.unblock(1, names[1])
        emit.advance(names[1], ack(1), R + 1)
        acked[1] = R + 1

    # The knot: stage i blocks full, waiting its consumer's next ack.
    for i, name in enumerate(names):
        emit.block(
            i,
            name,
            BlockedStatus(
                waits=frozenset({Event(ack(i + 1), R + 1)}),
                registered={sig(i): R + bound, ack(i): acked[i]},
            ),
        )

    if not spec.deadlock:
        # The chain unwinds from its free end; keep the trace tidy.
        for i, name in reversed(list(enumerate(names))):
            emit.unblock(i, name)

    header = TraceHeader(
        meta={
            "scenario": spec.name,
            "family": "bounded",
            "stages": spec.stages,
            "bound": spec.bound,
            "rounds": spec.rounds,
            "sites": spec.sites,
            "tasks": spec.n_tasks,
            "expect_deadlock": spec.deadlock,
            "generator": "repro.trace.corpus",
        }
    )
    return Trace(header=header, records=tuple(emit.records))


# ---------------------------------------------------------------------------
# mixed lock/barrier knot family
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KnotSpec:
    """Locks held across a barrier wait, tangled with lock acquirers.

    ``pairs`` holder/waiter pairs share one barrier.  In the knot,
    holder ``h{p}`` takes lock ``l{p}``, arrives at the barrier and
    waits for the others; waiter ``w{p}`` — which has *not* arrived —
    tries to take ``l{p}`` instead.  Under the lock event model
    (:mod:`repro.runtime.locks`: the holder of epoch ``k`` impedes the
    release event ``(l, k+1)``) that is the classic mixed knot: the
    holder's barrier wait is impeded by every non-arrived waiter, and
    each waiter's lock wait is impeded by its holder — a cycle through
    a lock edge *and* a barrier edge, closed by the first waiter's
    block.  With ``deadlock=False`` the waiters arrive at the barrier
    before acquiring, so the barrier trips and only acyclic lock waits
    remain.

    ``rounds`` warm-up barrier rounds (with per-round lock
    acquire/release context) provide bulk that must stay report-free.
    """

    pairs: int = 1
    rounds: int = 1
    sites: int = 1
    deadlock: bool = True

    def __post_init__(self) -> None:
        if self.pairs < 1:
            raise ValueError("pairs must be at least 1")
        if self.rounds < 0 or self.sites < 1:
            raise ValueError("rounds must be >= 0, sites >= 1")

    @property
    def n_tasks(self) -> int:
        return 2 * self.pairs

    @property
    def name(self) -> str:
        verdict = "dl" if self.deadlock else "ok"
        return f"knot-P{self.pairs}-R{self.rounds}-S{self.sites}-{verdict}"


def knot_trace(spec: KnotSpec) -> Trace:
    """Generate the full trace for a :class:`KnotSpec`."""
    emit = _Emitter(spec.sites)
    P, R = spec.pairs, spec.rounds
    holders = [f"h{p}" for p in range(P)]
    waiters = [f"w{p}" for p in range(P)]
    tasks = holders + waiters
    barrier = "bar"

    for name in tasks:
        emit.register(name, barrier, 0)

    # Warm-up: each round the holders cycle their locks (acquire at the
    # current epoch, release advancing it) and everyone runs one clean
    # SPMD barrier step.
    for r in range(1, R + 1):
        for p, name in enumerate(holders):
            emit.register(name, f"l{p}", r - 1)
            emit.advance(name, f"l{p}", r)
        for idx, name in enumerate(tasks):
            emit.advance(name, barrier, r)
            emit.block(
                idx,
                name,
                BlockedStatus(
                    waits=frozenset({Event(barrier, r)}),
                    registered={barrier: r},
                ),
            )
        for idx, name in enumerate(tasks):
            emit.unblock(idx, name)

    # The knot.  Holders take their locks (epoch R after R releases),
    # arrive at the barrier and wait for the stragglers.
    for p, name in enumerate(holders):
        emit.register(name, f"l{p}", R)
        emit.advance(name, barrier, R + 1)
        emit.block(
            p,
            name,
            BlockedStatus(
                waits=frozenset({Event(barrier, R + 1)}),
                registered={barrier: R + 1, f"l{p}": R},
            ),
        )
    # Waiters go for the held locks.  Deadlock: without arriving (they
    # impede the holders' barrier wait).  Ok: after arriving (they
    # impede nothing, and the barrier will trip).
    for p, name in enumerate(waiters):
        registered = {barrier: R}
        if not spec.deadlock:
            emit.advance(name, barrier, R + 1)
            registered = {barrier: R + 1}
        emit.block(
            P + p,
            name,
            BlockedStatus(
                waits=frozenset({Event(f"l{p}", R + 1)}), registered=registered
            ),
        )

    if not spec.deadlock:
        # Everyone arrived: the barrier trips, the holders release, the
        # waiters acquire; unwind in that order.
        for p, name in enumerate(holders):
            emit.unblock(p, name)
            emit.advance(name, f"l{p}", R + 1)
        for p, name in enumerate(waiters):
            emit.unblock(P + p, name)

    header = TraceHeader(
        meta={
            "scenario": spec.name,
            "family": "knot",
            "pairs": spec.pairs,
            "rounds": spec.rounds,
            "sites": spec.sites,
            "tasks": spec.n_tasks,
            "expect_deadlock": spec.deadlock,
            "generator": "repro.trace.corpus",
        }
    )
    return Trace(header=header, records=tuple(emit.records))


# ---------------------------------------------------------------------------
# high-task-count (asyncio-backend) family
# ---------------------------------------------------------------------------
#: Shapes the aio family generates.
AIO_SHAPES = ("cycle", "churn")

#: Churn-shape window: small and fixed, so replay checks stay O(window)
#: while the task count scales to the thousands.
AIO_CHURN_WINDOW = 8


@dataclass(frozen=True)
class AioSpec:
    """A high-task-count scenario, the shape of an asyncio-backend run.

    The thread-backend families top out at dozens of tasks per live
    run; this family models what ``repro.aio`` makes reachable —
    *thousands* of tasks in one process — in two shapes:

    * ``cycle``: an ``n``-task phaser ring (cycle length = task count,
      fan-out 1), the :func:`repro.aio.scenarios.phaser_ring` trace;
    * ``churn``: a fixed window of :data:`AIO_CHURN_WINDOW` members
      sliding over the whole ``n``-task pool (``rounds = n``), so every
      task registers, synchronises and leaves — maximal membership
      churn at scale.

    Record streams delegate to the cycle/churn emitters; the header
    marks the family (``family="aio"``, ``backend="asyncio"``).
    """

    tasks: int = 1000
    shape: str = "cycle"
    deadlock: bool = True

    def __post_init__(self) -> None:
        if self.shape not in AIO_SHAPES:
            raise ValueError(f"shape must be one of {AIO_SHAPES}, got {self.shape!r}")
        if self.tasks < 2:
            raise ValueError("tasks must be at least 2")

    @property
    def n_tasks(self) -> int:
        return self.tasks

    @property
    def name(self) -> str:
        verdict = "dl" if self.deadlock else "ok"
        return f"aio-{self.shape}-N{self.tasks}-{verdict}"


def aio_trace(spec: AioSpec) -> Trace:
    """Generate the full trace for an :class:`AioSpec`."""
    if spec.shape == "cycle":
        inner = scenario_trace(
            ScenarioSpec(
                cycle_len=spec.tasks,
                fan_out=1,
                sites=1,
                rounds=0,
                deadlock=spec.deadlock,
            )
        )
    else:
        inner = churn_trace(
            ChurnSpec(
                pool=spec.tasks,
                window=min(AIO_CHURN_WINDOW, spec.tasks),
                rounds=spec.tasks,
                sites=1,
                deadlock=spec.deadlock,
            )
        )
    header = TraceHeader(
        meta={
            "scenario": spec.name,
            "family": "aio",
            "backend": "asyncio",
            "shape": spec.shape,
            "tasks": spec.tasks,
            "expect_deadlock": spec.deadlock,
            "generator": "repro.trace.corpus",
        }
    )
    return Trace(header=header, records=inner.records)


# ---------------------------------------------------------------------------
# predictive near-miss family
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NearMissSpec:
    """One point of the predictive near-miss grid.

    The generated trace is always an **ok-trace** — the recorded
    schedule resolves every wait — but with ``realisable=True`` its
    blocked statuses close a wait-for cycle that *some* HB-consistent
    reordering manifests: the :mod:`repro.predict` pipeline's positive
    ground truth.  ``realisable=False`` is the matched true-negative
    control, identical but for the late registrations happening at the
    phaser's *current* phase, so no status impedes its neighbour and no
    reordering can deadlock.

    The schedule needs three ingredients a plain crossed-barrier
    scenario cannot provide (a task that releases a phaser must advance
    it, permanently raising its own registered phase — a static 2-task
    near-miss is impossible):

    * a chain of tasks ``t0..t{L-1}``, each blocking *sequentially* on
      its own phaser ``ci@1`` — at no point are two of them blocked at
      once, so no checker prefix ever reports;
    * helper tasks ``h0..h{L-1}`` that release each wait by advancing
      ``ci`` — the release edge the HB model records;
    * **late registration**: ``ti`` joins its predecessor's phaser
      ``c{i-1}`` only when its turn comes, at phase 0 (stale — the
      racy registration the predictor mines) or at the current phase 1
      (the control).

    ``rounds`` prepends deadlock-free SPMD warm-up rounds over all
    ``2L`` tasks (bulk negative events, as in every other family);
    ``sites > 1`` routes the blocked statuses through the delta wire
    format, exercising publish→sync ordering in the HB model.
    """

    chain_len: int = 2
    rounds: int = 1
    sites: int = 1
    realisable: bool = True

    def __post_init__(self) -> None:
        if self.chain_len < 2:
            raise ValueError("chain_len must be at least 2")
        if self.rounds < 0 or self.sites < 1:
            raise ValueError("rounds must be >= 0, sites >= 1")

    @property
    def n_tasks(self) -> int:
        return 2 * self.chain_len

    @property
    def deadlock(self) -> bool:
        """Near-miss schedules never deadlock in the recorded run —
        that is the family's defining property (``verify_corpus``
        checks it like any other spec's verdict)."""
        return False

    @property
    def name(self) -> str:
        variant = "hit" if self.realisable else "ctl"
        return (
            f"nearmiss-L{self.chain_len}-R{self.rounds}"
            f"-S{self.sites}-{variant}-ok"
        )


def nearmiss_trace(spec: NearMissSpec) -> Trace:
    """Generate the near-miss trace for ``spec`` (see the class doc)."""
    emit = _Emitter(spec.sites)
    length = spec.chain_len
    chain = [f"t{i}" for i in range(length)]
    helpers = [f"h{i}" for i in range(length)]
    tasks = chain + helpers  # position = emitter task index
    barrier = "bar"

    def phaser(i: int) -> str:
        return f"c{i % length}"

    # Membership context: warm-up barrier for everyone, own phaser for
    # every chain task and its helper.  t0 additionally holds the back
    # edge's registration (c{L-1}) from the start — the cycle's anchor.
    for name in tasks:
        if spec.rounds:
            emit.register(name, barrier, 0)
    for i, name in enumerate(chain):
        emit.register(name, phaser(i), 0)
    emit.register(chain[0], phaser(length - 1), 0)
    for i, name in enumerate(helpers):
        emit.register(name, phaser(i), 0)

    # Phase 1: deadlock-free SPMD warm-up rounds over all tasks.
    for r in range(1, spec.rounds + 1):
        for idx, name in enumerate(tasks):
            emit.advance(name, barrier, r)
            emit.block(
                idx,
                name,
                BlockedStatus(
                    waits=frozenset({Event(barrier, r)}),
                    registered={barrier: r},
                ),
            )
        for idx, name in enumerate(tasks):
            emit.unblock(idx, name)

    # Phase 2: the sequential chain.  ``ti`` late-registers on its
    # predecessor's phaser (stale phase 0 in the realisable variant,
    # current phase 1 in the control), arrives at its own phaser and
    # blocks; its helper releases it before ``t{i+1}`` even starts —
    # the recorded run never holds two chain waits at once.
    late_phase = 0 if spec.realisable else 1
    for i, name in enumerate(chain):
        prev = phaser(i - 1)
        prev_phase = 0 if i == 0 else late_phase
        if i >= 1:
            emit.register(name, prev, late_phase)
        emit.advance(name, phaser(i), 1)
        registered = {phaser(i): 1, prev: prev_phase}
        if spec.rounds:
            registered[barrier] = spec.rounds
        emit.block(
            i,
            name,
            BlockedStatus(
                waits=frozenset({Event(phaser(i), 1)}), registered=registered
            ),
        )
        emit.advance(helpers[i], phaser(i), 1)
        if i == 0:
            # t0 also arrives at the back-edge phaser before t{L-1}
            # blocks on it — its recorded status keeps the stale phase.
            emit.unblock(i, name)
            emit.advance(name, phaser(length - 1), 1)
        else:
            emit.unblock(i, name)

    header = TraceHeader(
        meta={
            "scenario": spec.name,
            "family": "nearmiss",
            "chain_len": spec.chain_len,
            "rounds": spec.rounds,
            "sites": spec.sites,
            "tasks": spec.n_tasks,
            "realisable": spec.realisable,
            "expect_deadlock": False,
            "expect_prediction": spec.realisable,
            "generator": "repro.trace.corpus",
        }
    )
    return Trace(header=header, records=tuple(emit.records))


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Family:
    """Everything that is per-family about a scenario family.

    ``default`` and ``smoke`` are grids: spec field → axis values, in
    product order (the first key varies slowest).  ``flags`` maps a
    ``gen`` option (its argparse dest) to the grid axis it overrides
    under ``--out``; ``valid`` filters grid points the spec class
    would reject.
    """

    spec: type
    build: Callable[..., Trace]
    default: Mapping[str, Sequence]
    smoke: Mapping[str, Sequence]
    flags: Mapping[str, str]
    valid: Optional[Callable[[dict], bool]] = None

    def specs(self, grid: Mapping[str, Sequence]) -> list:
        """The cross product of ``grid``'s axes as specs, in product
        order (fields the grid leaves out keep the spec's defaults)."""
        points = (
            dict(zip(grid, values)) for values in itertools.product(*grid.values())
        )
        return [
            self.spec(**point)
            for point in points
            if self.valid is None or self.valid(point)
        ]


_VERDICTS = (True, False)

#: Every scenario family ``gen`` writes, in output order.  Default
#: grids are kept modest (``gen`` flags override the mapped axes);
#: smoke grids are small and fast, still covering every record kind.
FAMILIES: Dict[str, Family] = {
    "cycle": Family(
        ScenarioSpec,
        scenario_trace,
        default=dict(cycle_len=(2, 3, 4), fan_out=(1, 2), sites=(1, 2),
                     rounds=(2,), deadlock=_VERDICTS),
        smoke=dict(cycle_len=(2, 3), fan_out=(1, 2), sites=(1, 2),
                   rounds=(1,), deadlock=_VERDICTS),
        flags=dict(cycle_lens="cycle_len", fan_outs="fan_out", sites="sites",
                   rounds="rounds"),
    ),
    "churn": Family(
        ChurnSpec,
        churn_trace,
        default=dict(pool=(4, 8), window=(2, 3), rounds=(4,), sites=(1, 2),
                     deadlock=_VERDICTS),
        smoke=dict(pool=(5,), window=(3,), rounds=(3,), sites=(1, 2),
                   deadlock=_VERDICTS),
        flags=dict(sites="sites"),
        # A window larger than the pool is not a churn scenario.
        valid=lambda point: point["window"] <= point["pool"],
    ),
    # The ≥1000-task floor, both shapes; smoke at a CI-friendly count.
    "aio": Family(
        AioSpec,
        aio_trace,
        default=dict(tasks=(1000,), shape=AIO_SHAPES, deadlock=_VERDICTS),
        smoke=dict(tasks=(128,), shape=AIO_SHAPES, deadlock=_VERDICTS),
        flags=dict(task_counts="tasks"),
    ),
    "bounded": Family(
        BoundedSpec,
        bounded_trace,
        default=dict(stages=(2, 3), bound=(1, 2), rounds=(2,), sites=(1, 2),
                     deadlock=_VERDICTS),
        smoke=dict(stages=(3,), bound=(2,), rounds=(1,), sites=(1, 2),
                   deadlock=_VERDICTS),
        flags=dict(rounds="rounds", sites="sites"),
    ),
    "knot": Family(
        KnotSpec,
        knot_trace,
        default=dict(pairs=(1, 2), rounds=(2,), sites=(1, 2), deadlock=_VERDICTS),
        smoke=dict(pairs=(2,), rounds=(1,), sites=(1, 2), deadlock=_VERDICTS),
        flags=dict(rounds="rounds", sites="sites"),
    ),
    # Both variants of every point — the control is what makes the
    # family a differential, not a demo.
    "nearmiss": Family(
        NearMissSpec,
        nearmiss_trace,
        default=dict(chain_len=(2, 3), rounds=(1,), sites=(1, 2),
                     realisable=_VERDICTS),
        smoke=dict(chain_len=(2,), rounds=(1,), sites=(1, 2),
                   realisable=_VERDICTS),
        flags=dict(cycle_lens="chain_len", rounds="rounds", sites="sites"),
    ),
}


def build_trace(spec) -> Trace:
    """Generate the trace for any scenario-spec family."""
    for family in FAMILIES.values():
        if type(spec) is family.spec:
            return family.build(spec)
    raise TypeError(f"not a scenario spec: {spec!r}")


def generate_corpus(specs: Iterable) -> List[Trace]:
    """Generate every spec's trace, in grid order (fully deterministic)."""
    return [build_trace(spec) for spec in specs]


def write_corpus(
    out_dir,
    specs: Iterable,
    codecs: Sequence[str] = ("jsonl", "binary"),
) -> List[pathlib.Path]:
    """Generate and persist the corpus; returns the written paths.

    Each scenario (any spec family) is written once per requested
    codec, as ``<name>.jsonl`` and/or ``<name>.trace``.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = {"jsonl": ".jsonl", "binary": ".trace"}
    paths: List[pathlib.Path] = []
    for spec in specs:
        trace = build_trace(spec)
        for codec in codecs:
            path = out_dir / f"{spec.name}{ext[codec]}"
            save_trace(trace, path, codec=codec)
            paths.append(path)
    return paths


def _verify_one(spec) -> bool:
    """Worker body for corpus verification (module-level, picklable)."""
    outcome = replay(build_trace(spec), mode="detection")
    return outcome.deadlocked == spec.deadlock


def verify_corpus(
    specs: Iterable, processes: int = 1
) -> List[Tuple[object, bool]]:
    """Replay every spec in detection mode and compare the verdict with
    the spec's ground truth.  Returns ``(spec, ok)`` pairs — the smoke
    job fails if any ``ok`` is False.

    ``processes > 1`` fans the specs out over worker processes (specs
    are generated *inside* the workers, so nothing but the tiny frozen
    dataclasses crosses the pipe); results keep spec order either way.
    """
    specs = list(specs)
    return list(zip(specs, fan_out(_verify_one, specs, processes)))
