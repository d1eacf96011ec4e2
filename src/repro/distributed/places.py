"""X10-style places: a cluster of sites sharing one store.

Mirrors the paper's distributed deployment sketch::

    finish for (p in CLUSTER) at (p) async example();

:class:`Cluster` wires ``n`` sites to a (optionally replicated) store and
offers the fork/join-across-places idiom.  Clocks span places: create a
:class:`~repro.runtime.clock.Clock` on any site's runtime and register
tasks of other sites — event names are global, so each site's local
constraints compose into the global analysis without coordination.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.core.checker import CheckStats
from repro.core.selection import GraphModel
from repro.distributed.site import Site
from repro.distributed.store import InMemoryStore, ReplicatedStore
from repro.obs.registry import MetricsRegistry
from repro.runtime.tasks import Task


class Cluster:
    """``n`` places over a shared, optionally replicated, store."""

    def __init__(
        self,
        n_places: int,
        model: GraphModel = GraphModel.AUTO,
        replicas: int = 1,
        check_interval_s: float = 0.2,
        publish_interval_s: float = 0.05,
        cancel_on_detect: bool = True,
        recorder=None,
    ) -> None:
        if n_places < 1:
            raise ValueError("need at least one place")
        stores = [InMemoryStore(name=f"replica{i}") for i in range(max(1, replicas))]
        self.store_replicas = stores
        # One recorder covers the whole cluster: every place's
        # block/unblock stream plus the store's publish stream land in a
        # single totally-ordered trace.
        if len(stores) == 1:
            stores[0].recorder = recorder
            self.store = stores[0]
        else:
            self.store = ReplicatedStore(stores, recorder=recorder)
        self.places: List[Site] = [
            Site(
                f"place{i}",
                self.store,
                model=model,
                check_interval_s=check_interval_s,
                publish_interval_s=publish_interval_s,
                cancel_on_detect=cancel_on_detect,
                recorder=recorder,
            )
            for i in range(n_places)
        ]

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Cluster":
        for place in self.places:
            place.start()
        return self

    def stop(self) -> None:
        for place in self.places:
            place.stop()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __len__(self) -> int:
        return len(self.places)

    def __getitem__(self, index: int) -> Site:
        return self.places[index]

    # -- the fork/join-across-places idiom -------------------------------------
    def run_everywhere(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
    ) -> List[Task]:
        """``for (p in CLUSTER) at (p) async fn(p, ...)``.

        ``fn`` receives the :class:`Site` as its first argument.  Returns
        the spawned tasks; join them for the ``finish``.
        """
        tasks = []
        for place in self.places:
            tasks.append(
                place.spawn(
                    fn,
                    place,
                    *args,
                    name=f"{name or fn.__name__}@{place.site_id}",
                )
            )
        return tasks

    def join_all(self, tasks: Sequence[Task], timeout: float = 60.0) -> list:
        """Join every task, re-raising the first failure."""
        return [t.join(timeout) for t in tasks]

    # -- aggregate accounting ----------------------------------------------------
    def all_reports(self) -> list:
        out = []
        for place in self.places:
            out.extend(place.reports)
        return out

    def total_check_stats(self) -> CheckStats:
        """Checker statistics across places: fold the places' checker
        registries, read the total."""
        total = MetricsRegistry()
        for place in self.places:
            total.merge(place.checker.stats.metrics)
        return CheckStats(total)
