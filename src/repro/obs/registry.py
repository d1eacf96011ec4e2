"""The process-local metrics registry: counters, gauges, histograms.

``repro.obs`` is the instrumentation plane of the verification stack.
Every layer — checker, runtime, distributed sites and stores, the
replay engines — records what it does into a
:class:`MetricsRegistry`, and two exporters (:mod:`repro.obs.export`)
turn a registry into Prometheus text exposition or a canonical JSON
snapshot.

**One ledger.**  A count lives in exactly one *child* of one registry.
``instrument.labels(**labels)`` returns that child — the same object
for the same labels, always — and the child is what a hot path holds
and updates (``inc``/``dec``/``set``/``observe``, one body each, under
the registry's one lock); ``instrument.inc(**labels)`` and its siblings
are ``labels(**labels)`` plus that call.  A per-check or per-write path
holds a :class:`Tally` instead, where a count lives *between folds*:
plain numbers bumped under a lock its owner already holds.  Every read
of a child (so every export, ``merge`` and pickling) first folds every
tally (:meth:`MetricsRegistry._publish`).  A child joins snapshots,
``per_label()`` and exports with its *first update*, so binding every
label value up front materialises nothing.  Sharing a registry means
*adding* to it: no component assigns into a shared series or reads a
shared series back as its own number, which is what lets any number of
checkers record into one registry and the series stay sums.

Three properties are design constraints, not afterthoughts:

* **Deterministic snapshots.**  A snapshot orders metrics by name and
  children by label values, and every *non-volatile* instrument is a
  pure function of the event stream that fed it — so replaying the
  same trace produces byte-identical snapshots, however many worker
  processes shared the work.  Wall-clock-valued instruments (latency
  histograms, poll counters, live gauges) are declared ``volatile``
  and can be excluded from a snapshot wholesale, which is how the CLI
  keeps ``--metrics-json`` output diffable across ``--parallel N``.
* **Associative, commutative ``merge``.**  Counters, gauges and
  histogram buckets fold by summation, histogram extrema by min/max —
  so parallel-replay fan-in can merge per-worker registries in any
  order and get the same bytes.  :meth:`MetricsRegistry.merge` is the
  only fold.
* **Near-zero disabled overhead.**  :data:`NULL_REGISTRY` (a
  :class:`NullRegistry`) hands out one shared no-op instrument that is
  its own ``labels()`` child; an instrumented call site costs one
  attribute load and one no-op call when metrics are off.  Hot paths
  that would pay even for argument marshalling guard on
  ``registry.enabled``.

Instruments are keyed by name process-wide *per registry* — asking a
registry twice for the same name returns the same instrument (matching
Prometheus client semantics), and asking with a different type or
label set raises.  Registries are picklable (locks are dropped and
recreated), which is what lets a replay worker ship its registry back
to the parent for merging.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Tally",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
]

#: Default buckets for wall-clock latency histograms (seconds).  Spans
#: the paper's check-latency range: microsecond O(1) incremental checks
#: up to whole-second distributed rounds.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5,
)

#: Default buckets for size-like histograms (edge counts, delta op
#: counts, payload sizes): powers of two, which keep bucket boundaries
#: exact for the integer quantities the verifier produces.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)


def _label_values(label_names: Tuple[str, ...], labels: Dict[str, object]) -> Tuple[str, ...]:
    """Canonicalise keyword labels into the declared-name order."""
    if len(labels) != len(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    try:
        return tuple(str(labels[name]) for name in label_names)
    except KeyError as exc:
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        ) from exc


class _CounterChild:
    """One labelled series of a counter: where the count lives, and the
    handle a hot path holds (``instrument.labels(...)`` returns it).

    ``live`` turns true with the first update — until then the child is
    bound but absent from snapshots, ``per_label()`` and exports, so
    pre-binding every label value materialises no zero-count series.
    """

    __slots__ = ("_registry", "value", "live")

    def __init__(self, instrument: "_Instrument") -> None:
        self._registry = instrument._registry
        self.reset()

    def reset(self) -> None:
        """Back to the never-updated state (caller holds the lock)."""
        self.value = 0
        self.live = False

    def inc(self, amount=1) -> None:
        with self._registry._lock:
            self.value += amount
            self.live = True

    def state(self):
        """What :meth:`fold` takes (caller holds the lock)."""
        return self.value

    def fold(self, state) -> None:
        self.inc(state)

    def snapshot(self) -> dict:
        return {"value": self.value}


class _GaugeChild(_CounterChild):
    """One labelled series of a gauge: a counter child that can also be
    assigned and go down.  Gauges fold by sum, like counters."""

    __slots__ = ()

    def set(self, value) -> None:
        with self._registry._lock:
            self.value = value
            self.live = True

    def dec(self, amount=1) -> None:
        self.inc(-amount)


class _HistChild:
    """One labelled series of a histogram: bucket counts plus exact
    streaming sum/min/max.  Live once observed (``count > 0``)."""

    __slots__ = ("_hist", "counts", "count", "sum", "vmin", "vmax")

    def __init__(self, hist: "Histogram") -> None:
        self._hist = hist
        self.reset()

    def reset(self) -> None:
        self.counts = [0] * (len(self._hist.buckets) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.sum = 0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    @property
    def live(self) -> bool:
        return self.count > 0

    def observe(self, value) -> None:
        with self._hist._registry._lock:
            self._add(value)

    def _add(self, value) -> None:
        self.counts[bisect_left(self._hist.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def state(self) -> tuple:
        return (list(self.counts), self.count, self.sum, self.vmin, self.vmax)

    def fold(self, state: tuple) -> None:
        counts, count, total, vmin, vmax = state
        with self._hist._registry._lock:
            for idx, n in enumerate(counts):
                self.counts[idx] += n
            self.count += count
            self.sum += total
            self.vmin = vmin if self.vmin is None else min(self.vmin, vmin)
            self.vmax = vmax if self.vmax is None else max(self.vmax, vmax)

    def snapshot(self) -> dict:
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.vmin,
            "max": self.vmax,
        }


class _Instrument:
    """Common instrument state: identity, labels, child table."""

    kind = "instrument"
    _child_type: type

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        volatile: bool,
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.label_names = label_names
        self.volatile = volatile
        # label-values tuple -> child; bound children stay for good, so
        # a handle is the same object for as long as the instrument lives.
        self._children: Dict[Tuple[str, ...], object] = {}

    # -- identity ------------------------------------------------------
    def _spec(self) -> tuple:
        """The compatibility key a re-registration must match."""
        return (self.kind, self.label_names)

    def _check_compatible(self, other_spec: tuple) -> None:
        if self._spec() != other_spec:
            raise ValueError(
                f"metric {self.name!r} re-registered with a different "
                f"type or label set ({self._spec()} vs {other_spec})"
            )

    # -- child access --------------------------------------------------
    def labels(self, **labels):
        """The child holding ``labels``' series — the same object on
        every call, so a hot path binds it once and updates it directly."""
        return self._child(_label_values(self.label_names, labels))

    def _child(self, values: Tuple[str, ...]):
        child = self._children.get(values)
        if child is None:
            with self._registry._lock:
                child = self._children.setdefault(values, self._child_type(self))
        return child

    def _get(self, labels: dict):
        """The child for ``labels`` if it was ever bound, else None —
        reads must not bind."""
        self._registry._publish()
        return self._children.get(_label_values(self.label_names, labels))

    def _live(self) -> list:
        """``(label values, child)`` of every updated child, sorted."""
        self._registry._publish()
        with self._registry._lock:
            # Label tuples are unique, so the sort never compares children.
            return sorted(
                item for item in self._children.items() if item[1].live
            )

    def clear(self) -> None:
        """Zero every child in place: a held handle stays valid and
        rejoins the snapshot with its next update."""
        self._registry._publish()
        with self._registry._lock:
            for child in self._children.values():
                child.reset()

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict:
        """This instrument's canonical snapshot entry."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "volatile": self.volatile,
            "values": [
                dict(labels=list(values), **child.snapshot())
                for values, child in self._live()
            ],
        }

    def merge_from(self, other: "_Instrument") -> None:
        """Fold every live child of ``other`` into the same-labelled
        child here (sums; histogram extrema by min/max)."""
        live = other._live()
        with other._registry._lock:
            states = [(values, child.state()) for values, child in live]
        for values, state in states:
            self._child(values).fold(state)


class _Scalar(_Instrument):
    """What counters and gauges share: one number per child."""

    def inc(self, amount=1, **labels) -> None:
        """Add ``amount`` (default 1) to the labelled child."""
        self.labels(**labels).inc(amount)

    def value(self, **labels):
        """Current value of the labelled child (0 if never touched)."""
        child = self._get(labels)
        return 0 if child is None else child.value


class Counter(_Scalar):
    """A monotonically increasing count (optionally labelled)."""

    kind = "counter"
    _child_type = _CounterChild

    def total(self):
        """Sum across every labelled child."""
        return sum(child.value for _, child in self._live())

    def per_label(self) -> Dict[Tuple[str, ...], int]:
        """``{label-values tuple: value}`` across children (sorted)."""
        return {values: child.value for values, child in self._live()}


class Gauge(_Scalar):
    """A point-in-time value; parallel fan-in folds gauges by sum."""

    kind = "gauge"
    _child_type = _GaugeChild

    def set(self, value, **labels) -> None:
        self.labels(**labels).set(value)

    def dec(self, amount=1, **labels) -> None:
        self.labels(**labels).dec(amount)


class Histogram(_Instrument):
    """A fixed-bucket distribution with exact sum/min/max.

    Buckets are *upper bounds* (a trailing +Inf bucket is implicit).
    Quantiles are derived from the bucket counts — deterministic and
    mergeable, at bucket-boundary resolution — while ``sum``/``min``/
    ``max`` are exact streaming aggregates.
    """

    kind = "histogram"
    _child_type = _HistChild

    def __init__(self, registry, name, help, label_names, volatile,
                 buckets: Sequence[float]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        super().__init__(registry, name, help, label_names, volatile)
        self.buckets: Tuple[float, ...] = tuple(buckets)

    def _spec(self) -> tuple:
        return (self.kind, self.label_names, self.buckets)

    def observe(self, value, **labels) -> None:
        self.labels(**labels).observe(value)

    # -- derived aggregates -------------------------------------------
    def count_of(self, **labels) -> int:
        child = self._get(labels)
        return 0 if child is None else child.count

    def sum_of(self, **labels):
        child = self._get(labels)
        return 0 if child is None else child.sum

    def max_of(self, **labels):
        child = self._get(labels)
        return 0 if child is None or child.vmax is None else child.vmax

    def min_of(self, **labels):
        child = self._get(labels)
        return 0 if child is None or child.vmin is None else child.vmin

    def quantile(self, q: float, **labels) -> float:
        """Bucket-resolution quantile estimate in ``[0, 1]``.

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * count`` — clamped to the exact streaming
        ``max`` so an estimate can never exceed an observed value.
        Deterministic, and stable under :meth:`merge_from` (quantiles
        of merged buckets equal quantiles over the union stream at the
        same resolution).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        child = self._get(labels)
        if child is None or child.count == 0:
            return 0.0
        target = q * child.count
        cumulative = 0
        for idx, upper in enumerate(self.buckets):
            cumulative += child.counts[idx]
            if cumulative >= target and cumulative > 0:
                return min(upper, child.vmax)
        return child.vmax

    def snapshot(self) -> dict:
        out = super().snapshot()
        out["buckets"] = list(self.buckets)
        return out


class _HistShadow(_HistChild):
    """A histogram child's pending observations, bumped lock-free."""

    __slots__ = ()
    observe = _HistChild._add


class _Pending:
    """A tally's numbers and its owner's lock: what the registry folds,
    and keeps until the first read after the tally has died."""

    __slots__ = ("lock", "counters", "counts", "hists", "totals", "seen")

    def __init__(self, lock, counters, histograms, totals) -> None:
        self.lock, self.counters, self.totals = lock, list(counters), totals
        self.counts = [0] * len(self.counters)
        self.hists = [(child, _HistShadow(child._hist)) for child in histograms]
        self.seen = totals() if totals is not None else ()

    def fold(self) -> None:
        # The owner lock first; each child update then takes the
        # registry lock — never nested the other way.
        with self.lock:
            counts = self.counts
            if self.totals is not None:
                now = self.totals()
                for i, (total, seen) in enumerate(zip(now, self.seen), len(counts) - len(now)):
                    counts[i] += total - seen
                self.seen = now
            for i, child in enumerate(self.counters):
                if counts[i]:
                    child.inc(counts[i])
                    counts[i] = 0
            for child, shadow in self.hists:
                if shadow.count:
                    child.fold(shadow.state())
                    shadow.reset()


class Tally:
    """Deferred publication: a hot path's plain numbers, folded into
    instrument children whenever the registry is read.

    Under its lock, the owner bumps ``counts[i]`` (pending for the
    ``i``-th counter child) and calls ``hists[j].observe(value)``;
    nothing here takes the registry lock.  The owner holds the tally;
    the registry holds it weakly, and folds a dead one a last time.
    """

    __slots__ = ("counts", "hists", "__weakref__")

    def __init__(self, pending: _Pending) -> None:
        self.counts = pending.counts
        self.hists = [shadow for _, shadow in pending.hists]


class MetricsRegistry:
    """A named collection of instruments with deterministic snapshots.

    ``enabled`` is True — the :class:`NullRegistry` subclass is the
    disabled twin, letting call sites guard genuinely hot work with a
    single attribute check (``if registry.enabled: ...``) while routine
    instrumentation just calls the no-op instruments.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()
        self._tallies: List[Tuple[weakref.ref, _Pending]] = []

    # -- pickling (replay workers ship registries to the parent) -------
    def __getstate__(self) -> dict:
        self._publish()
        state = self.__dict__.copy()
        del state["_lock"], state["_tallies"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._tallies = []

    # -- deferred publication ------------------------------------------
    def tally(self, lock, counters: Sequence = (), histograms: Sequence = (),
              totals: Optional[Callable[[], tuple]] = None) -> Tally:
        """A :class:`Tally` over ``counters`` and ``histograms``
        (children of this registry's instruments), bumped under
        ``lock``.  ``totals``, if given, returns running totals kept
        elsewhere (a structure's own work counters) for the *last*
        counters; each fold adds their growth since the previous one."""
        pending = _Pending(lock, counters, histograms, totals)
        tally = Tally(pending)
        with self._lock:
            self._tallies.append((weakref.ref(tally), pending))
        return tally

    def _publish(self) -> None:
        """Fold every tally into its children: the one choke point every
        read of a child passes through.  A dead tally is folded one last
        time and dropped.  Never called under the registry lock."""
        with self._lock:
            tallies = list(self._tallies)
        dead = {id(pending) for ref, pending in tallies if ref() is None}
        for _, pending in tallies:
            pending.fold()
        if dead:
            with self._lock:
                self._tallies = [e for e in self._tallies if id(e[1]) not in dead]

    # -- instrument constructors (get-or-create) -----------------------
    def _register(self, cls, name, help, labels, volatile, *extra):
        """``name``'s instrument, created as ``cls`` if new; a
        re-registration must match its type, labels and ``extra``
        (a histogram's buckets)."""
        label_names = tuple(labels)
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            created = cls(self, name, help, label_names, volatile, *extra)
            with self._lock:
                metric = self._metrics.setdefault(name, created)
        metric._check_compatible((cls.kind, label_names, *extra))
        return metric

    def counter(self, name: str, help: str = "", labels: Iterable[str] = (),
                volatile: bool = False) -> Counter:
        return self._register(Counter, name, help, labels, volatile)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = (),
              volatile: bool = False) -> Gauge:
        return self._register(Gauge, name, help, labels, volatile)

    def histogram(self, name: str, help: str = "", labels: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_SIZE_BUCKETS,
                  volatile: bool = False) -> Histogram:
        return self._register(Histogram, name, help, labels, volatile,
                              tuple(buckets))

    # -- introspection -------------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self, volatile: bool = True) -> dict:
        """The canonical snapshot: metrics sorted by name, children by
        label values.  ``volatile=False`` excludes volatile instruments
        — the deterministic view the replay CLI emits."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            "v": 1,
            "metrics": [
                metric.snapshot()
                for _, metric in metrics
                if volatile or not metric.volatile
            ],
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry.

        Same-named instruments must agree on type, labels and buckets;
        missing ones are created.  The fold is associative and
        commutative in every field, so parallel fan-in may merge
        worker registries in any order.
        """
        if not other.enabled:
            return
        with other._lock:
            items = sorted(other._metrics.items())
        for name, metric in items:
            # ``_spec()[2:]``: the buckets, for a histogram.
            self._register(type(metric), name, metric.help, metric.label_names,
                           metric.volatile, *metric._spec()[2:]).merge_from(metric)


class _NullInstrument:
    """One shared do-nothing instrument behind every null constructor."""

    __slots__ = ()
    volatile = False

    def inc(self, amount=1, **labels) -> None:
        return None

    def dec(self, amount=1, **labels) -> None:
        return None

    def set(self, value, **labels) -> None:
        return None

    def observe(self, value, **labels) -> None:
        return None

    def labels(self, **labels) -> "_NullInstrument":
        return self


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every constructor returns a shared no-op
    instrument (its own ``labels()`` child too), ``snapshot`` is empty
    and ``merge`` drops its input.  Identity across calls lets call
    sites pre-bind instruments unconditionally and pay (almost)
    nothing when metrics are off."""

    enabled = False

    def _register(self, cls, name, help, labels, volatile, *extra):
        return _NULL_INSTRUMENT

    def snapshot(self, volatile: bool = True) -> dict:
        return {"v": 1, "metrics": []}

    def merge(self, other) -> None:
        return None


#: The process-wide disabled registry — the default ``metrics=`` value
#: throughout the stack.  Shared (it holds no state), so `is` checks
#: and pre-bound instruments work everywhere.
NULL_REGISTRY = NullRegistry()
