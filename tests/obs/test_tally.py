"""Publication at read: a :class:`~repro.obs.registry.Tally` holds a hot
path's counts between folds, and every read of the registry folds them.

The pins:

* every read path — child reads, histogram aggregates, snapshots and
  the two exporters, ``merge`` and pickling — sees bumps made since the
  last fold, with no explicit flush, and a second read never counts
  them twice;
* a tally whose owner died unread is folded once more and forgotten;
* a scrape concurrent with checks never loses one;
* an acyclic check and a write take the registry lock zero times.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading

import pytest

from repro.core.events import waiting_on
from repro.core.incremental import IncrementalChecker
from repro.core.selection import GraphModel
from repro.obs.export import to_json, to_prometheus
from repro.obs.registry import MetricsRegistry


def instruments(reg):
    return (
        reg.counter("c_total", "a counter", labels=("op",)),
        reg.histogram("h", "sizes", buckets=(1, 10, 100)),
    )


BUMPS = [("put", 5), ("get", 50), ("put", 500), ("put", 0)]


def direct_registry():
    """The same updates made straight on the children."""
    reg = MetricsRegistry()
    counter, hist = instruments(reg)
    for op, size in BUMPS:
        counter.inc(op=op)
        hist.observe(size)
    return reg


def tallied_registry():
    """The same updates pending in a tally; returns the owner's handle
    too, which keeps the tally alive."""
    reg = MetricsRegistry()
    counter, hist = instruments(reg)
    lock = threading.Lock()
    tally = reg.tally(
        lock,
        counters=[counter.labels(op="put"), counter.labels(op="get")],
        histograms=[hist.labels()],
    )
    with lock:
        for op, size in BUMPS:
            tally.counts[op == "get"] += 1
            tally.hists[0].observe(size)
    return reg, tally


def merged(reg):
    total = MetricsRegistry()
    total.merge(reg)
    return total.snapshot()


READERS = {
    "value": lambda reg: reg.get("c_total").value(op="put"),
    "total": lambda reg: reg.get("c_total").total(),
    "per_label": lambda reg: reg.get("c_total").per_label(),
    "count_of": lambda reg: reg.get("h").count_of(),
    "sum_of": lambda reg: reg.get("h").sum_of(),
    "max_of": lambda reg: reg.get("h").max_of(),
    "min_of": lambda reg: reg.get("h").min_of(),
    "quantile": lambda reg: reg.get("h").quantile(0.5),
    "snapshot": lambda reg: reg.snapshot(),
    "prometheus": to_prometheus,
    "json": to_json,
    "merge": merged,
    "pickle": lambda reg: pickle.loads(pickle.dumps(reg)).snapshot(),
}


class TestEveryReadFolds:
    @pytest.mark.parametrize("reader", list(READERS), ids=str)
    def test_read_sees_pending_bumps(self, reader):
        read = READERS[reader]
        reg, tally = tallied_registry()
        expected = read(direct_registry())
        assert read(reg) == expected
        assert read(reg) == expected  # a second fold adds nothing

    def test_bumps_after_a_fold_are_seen_by_the_next_read(self):
        reg, tally = tallied_registry()
        assert reg.get("c_total").value(op="get") == 1
        tally.counts[1] += 2
        assert reg.get("c_total").value(op="get") == 3

    def test_untouched_children_stay_out_of_the_snapshot(self):
        reg = MetricsRegistry()
        counter, hist = instruments(reg)
        tally = reg.tally(threading.Lock(), [counter.labels(op="put")],
                          [hist.labels()])
        assert reg.snapshot()["metrics"][0]["values"] == []
        assert tally.counts == [0]

    def test_running_totals_publish_their_growth(self):
        reg = MetricsRegistry()
        work = reg.counter("work_total", labels=("kind",))
        source = {"visits": 7}  # counted before the tally existed
        tally = reg.tally(
            threading.Lock(), [work.labels(kind="visits")],
            totals=lambda: (source["visits"],),
        )
        assert work.value(kind="visits") == 0
        source["visits"] += 5
        assert work.value(kind="visits") == 5
        assert work.value(kind="visits") == 5
        assert tally.counts == [0]

    def test_a_dead_tally_is_folded_once_more_and_forgotten(self):
        reg, tally = tallied_registry()
        del tally
        gc.collect()
        assert reg.snapshot() == direct_registry().snapshot()
        assert reg._tallies == []


class TestCheckerPublication:
    def test_checks_and_writes_are_visible_without_a_flush(self):
        reg = MetricsRegistry()
        checker = IncrementalChecker(model=GraphModel.WFG, metrics=reg)
        checker.set_blocked("t1", waiting_on("p", 1, p=1, q=0))
        checker.check()
        checker.check()
        assert reg.get("repro_checks_total").value(model="wfg") == 2
        assert reg.get("repro_incremental_delta_ops_total").value(op="set_blocked") == 1
        shipped = pickle.loads(pickle.dumps(reg))
        assert shipped.get("repro_checks_total").total() == 2
        assert checker.stats.checks == 2

    def test_concurrent_scrapes_never_lose_a_check(self):
        """Checker threads run N checks each while scrapers snapshot the
        shared registry in a loop: every scrape is monotone, and the
        last one counts every check."""
        n, n_checkers = 1000, 3
        reg = MetricsRegistry()
        checkers = [IncrementalChecker(metrics=reg) for _ in range(n_checkers)]
        for checker in checkers:
            checker.set_blocked("t1", waiting_on("p", 1, p=1))
        done = threading.Event()
        scraped = {0: [], 1: []}

        def checks_now():
            return sum(
                v["value"]
                for m in reg.snapshot()["metrics"]
                if m["name"] == "repro_checks_total"
                for v in m["values"]
            )

        def scrape(seen):
            while not done.is_set():
                seen.append(checks_now())

        def run(checker):
            for _ in range(n):
                checker.check()

        scrapers = [threading.Thread(target=scrape, args=(seen,)) for seen in scraped.values()]
        workers = [threading.Thread(target=run, args=(c,)) for c in checkers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in scrapers + workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            done.set()
            for thread in scrapers:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in scrapers + workers)
        for seen in scraped.values():
            assert seen == sorted(seen)
        assert checks_now() == n * n_checkers


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


@pytest.mark.parametrize("model", list(GraphModel), ids=lambda m: m.value)
def test_acyclic_checks_and_writes_take_no_registry_lock(model):
    reg = MetricsRegistry()
    checker = IncrementalChecker(model=model, metrics=reg)
    checker.set_blocked("t1", waiting_on("p", 1, p=1, q=0))
    reg._lock = counting = CountingLock()
    for _ in range(1000):
        assert checker.check() is None
    for i in range(100):
        checker.set_blocked(f"w{i}", waiting_on("q", 1, q=1))
        checker.clear(f"w{i}")
    assert counting.acquisitions == 0
    assert checker.stats.checks == 1000
    assert counting.acquisitions > 0  # the read folded, under the lock
