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
are ``labels(**labels)`` plus that call.  A child joins snapshots,
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
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
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
        hist = self._hist
        idx = bisect_left(hist.buckets, value)
        with hist._registry._lock:
            self.counts[idx] += 1
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
        return self._children.get(_label_values(self.label_names, labels))

    def _live(self) -> list:
        """``(label values, child)`` of every updated child, sorted."""
        with self._registry._lock:
            # Label tuples are unique, so the sort never compares children.
            return sorted(
                item for item in self._children.items() if item[1].live
            )

    def clear(self) -> None:
        """Zero every child in place: a held handle stays valid and
        rejoins the snapshot with its next update."""
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
        with other._registry._lock:
            states = [(values, child.state())
                      for values, child in other._children.items() if child.live]
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
        with self._registry._lock:
            return sum(child.value for child in self._children.values())

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

    # -- pickling (replay workers ship registries to the parent) -------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- instrument constructors (get-or-create) -----------------------
    def _register(self, name: str, factory):
        with self._lock:
            existing = self._metrics.get(name)
        if existing is None:
            created = factory()
            with self._lock:
                existing = self._metrics.setdefault(name, created)
        return existing

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        volatile: bool = False,
    ) -> Counter:
        label_names = tuple(labels)
        metric = self._register(
            name, lambda: Counter(self, name, help, label_names, volatile)
        )
        metric._check_compatible(("counter", label_names))
        return metric  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        volatile: bool = False,
    ) -> Gauge:
        label_names = tuple(labels)
        metric = self._register(
            name, lambda: Gauge(self, name, help, label_names, volatile)
        )
        metric._check_compatible(("gauge", label_names))
        return metric  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_SIZE_BUCKETS,
        volatile: bool = False,
    ) -> Histogram:
        label_names = tuple(labels)
        bucket_t = tuple(buckets)
        metric = self._register(
            name,
            lambda: Histogram(self, name, help, label_names, volatile, bucket_t),
        )
        metric._check_compatible(("histogram", label_names, bucket_t))
        return metric  # type: ignore[return-value]

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
            if isinstance(metric, Counter):
                mine = self.counter(name, metric.help, metric.label_names,
                                    metric.volatile)
            elif isinstance(metric, Gauge):
                mine = self.gauge(name, metric.help, metric.label_names,
                                  metric.volatile)
            elif isinstance(metric, Histogram):
                mine = self.histogram(name, metric.help, metric.label_names,
                                      metric.buckets, metric.volatile)
            else:  # pragma: no cover - no other instrument kinds exist
                raise TypeError(f"unknown instrument type {type(metric)!r}")
            mine.merge_from(metric)  # type: ignore[arg-type]


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

    def counter(self, name, help="", labels=(), volatile=False):
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name, help="", labels=(), volatile=False):
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name, help="", labels=(), buckets=DEFAULT_SIZE_BUCKETS,
                  volatile=False):
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def snapshot(self, volatile: bool = True) -> dict:
        return {"v": 1, "metrics": []}

    def merge(self, other) -> None:
        return None


#: The process-wide disabled registry — the default ``metrics=`` value
#: throughout the stack.  Shared (it holds no state), so `is` checks
#: and pre-bound instruments work everywhere.
NULL_REGISTRY = NullRegistry()
