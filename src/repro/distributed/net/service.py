"""The multi-tenant checker service core (transport-free).

:class:`TenantChecker` is one tenant namespace: its own store (default
an :class:`~repro.distributed.store.InMemoryStore`, or anything with
the five-method delta surface — e.g. a
:class:`~repro.distributed.store.ReplicatedStore` for the
fault-injection suite), one maintained
:class:`~repro.distributed.detector.DistributedChecker`
(``DeltaMergeState`` + ``IncrementalChecker``), a distinct-report log,
and service-side provenance: every accepted append feeds an
:class:`~repro.obs.tracing.OriginTracker`, so a report the service
files carries per-edge ``(site, stream, seq)`` origins — the same
enrichment replay attaches, derived here from the live stream instead
of a recorded trace.

:class:`CheckerServiceCore` maps wire requests (plain dicts) to tenant
operations and wire responses, with exceptions encoded faithfully:
``DeltaSequenceError`` and ``StoreUnavailableError`` cross the wire as
typed errors and are re-raised as the same classes client-side, which
is what lets :class:`~repro.distributed.net.client.RemoteStore` be a
drop-in store — publisher gap recovery and replica-heal semantics
survive the hop because the error *types* do.

The TCP transport wrapping this core lives in
:mod:`repro.distributed.net.server`; keeping the core transport-free is
what the protocol unit tests (and any future transport) build on.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Mapping
from typing import Callable, Dict, List, Optional

from repro.core.report import DeadlockReport
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaSequenceError, validate_extends
from repro.distributed.detector import DistributedChecker
from repro.distributed.net.framing import ACK
from repro.distributed.store import InMemoryStore, StoreUnavailableError
from repro.obs.registry import NULL_REGISTRY

log = logging.getLogger(__name__)

__all__ = ["TenantChecker", "CheckerServiceCore", "DEFAULT_TENANT"]

#: The namespace used when a client does not name one.
DEFAULT_TENANT = "default"

#: Distinct cycles a tenant's report log retains, newest last: what a
#: tenant publishes decides how many there are, so the log is bounded.
MAX_TENANT_REPORTS = 256

#: Typed wire errors: error kind <-> exception class, shared with the
#: client so a server-side raise resurfaces as the same type.
WIRE_ERRORS = {
    "sequence": DeltaSequenceError,
    "unavailable": StoreUnavailableError,
    "value": ValueError,
}


def _text(request: Mapping, key: str, default: Optional[str] = None) -> str:
    """Field ``key`` of a request, which must be a string; a missing
    field is ``default``, or a :class:`KeyError` when there is none."""
    value = request[key] if default is None else request.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


class TenantChecker:
    """One tenant namespace of the checker service.

    All mutation goes through ``self._lock`` — the asyncio transport
    serialises requests per loop, but the periodic check task, the obs
    HTTP threads (health scrapes) and embedding tests reach in from
    other threads.  The store keeps its own internal lock; holding the
    tenant lock across store calls keeps append-order and the origin
    ordinal consistent.
    """

    def __init__(
        self,
        name: str,
        store=None,
        model: GraphModel = GraphModel.AUTO,
        metrics=None,
        tracer=None,
    ) -> None:
        from repro.obs.tracing import NULL_TRACER, OriginTracker

        self.name = str(name)
        self.store = store if store is not None else InMemoryStore(
            name=f"tenant:{self.name}", metrics=metrics
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.checker = DistributedChecker(
            self.store, model=model, metrics=metrics, tracer=self.tracer
        )
        #: The newest ``MAX_TENANT_REPORTS`` distinct reports, oldest
        #: first; ``reports_filed`` counts every one ever logged.
        self.reports: List[DeadlockReport] = []
        self.reports_filed = 0
        # Detection passes this tenant ran and how many answered with a
        # cycle — its own numbers: the check series in a registry the
        # service shares across tenants are service-wide sums.
        self.checks = 0
        self.cycles_found = 0
        self._seen_cycles: set = set()
        self._origins = OriginTracker()
        self._ordinal = 0
        # The last cyclic answer: (the checker's report object, the
        # origin ordinal it was enriched at, the enriched report, its
        # wire object).  The ordinal is part of the key because a
        # checkpoint re-publish moves origins without touching the graph.
        self._answer = (None, -1, None, None)
        self._lock = threading.Lock()
        self._m_evicted = (
            metrics if metrics is not None else NULL_REGISTRY
        ).counter(
            "repro_net_reports_evicted_total",
            "Reports dropped, oldest first, from a tenant's bounded "
            "distinct-report log.",
            labels=("tenant",),
        ).labels(tenant=self.name)

    # -- the five-method store surface, tenant-scoped ------------------
    def append_delta(self, site: str, obj: Mapping) -> None:
        from repro.trace.events import delta_payload_from_obj

        # Reject malformed input loudly.
        self._append(site, delta_payload_from_obj(obj))

    def _append(self, site: str, payload: dict) -> None:
        """:meth:`append_delta` of a payload ``delta_payload_from_obj``
        already returned."""
        with self._lock:
            self.store.append_delta(site, payload)
            # Only an *accepted* append advances provenance: a gapped or
            # rejected delta never entered the analysed view.
            self._ordinal += 1
            self._origins.observe_delta(self._ordinal, str(site), payload)

    def get_deltas(self, site: str, after_seq: int,
                   stream: Optional[str] = None) -> List[dict]:
        with self._lock:
            return self.store.get_deltas(site, after_seq, stream)

    def get_state(self, site: str):
        with self._lock:
            return self.store.get_state(site)

    def delta_tail(self, site: str):
        with self._lock:
            return self.store.delta_tail(site)

    def delta_sites(self) -> List[str]:
        with self._lock:
            return self.store.delta_sites()

    def delete(self, site: str) -> None:
        with self._lock:
            self.store.delete(site)
            self._origins.drop_site(str(site))

    # -- checking ------------------------------------------------------
    def check(self) -> Optional[DeadlockReport]:
        """One detection pass over the tenant's published state.

        Returns the (provenance-enriched) report when the view holds a
        cycle — every pass, so remote pollers always see it — while the
        tenant's ``reports`` log keeps one entry per distinct cycle.
        Polling a stable deadlock re-attributes and re-serialises
        nothing: the checker hands back the same report object until
        the graph changes.
        """
        with self._lock:
            return self._check()[0]

    def check_obj(self) -> Optional[dict]:
        """:meth:`check`, answered as the report's wire object."""
        with self._lock:
            return self._check()[1]

    def _check(self):
        from repro.obs.tracing import attach_provenance
        from repro.trace.events import report_to_obj

        report = self.checker.check_global()
        self.checks += 1
        if report is None:
            return None, None
        self.cycles_found += 1
        raw, ordinal, enriched, obj = self._answer
        if report is not raw or ordinal != self._ordinal:
            statuses = self.checker.view.merged_snapshot().statuses
            enriched, _ = attach_provenance(report, self._origins, statuses)
            obj = report_to_obj(enriched)
            self._answer = (report, self._ordinal, enriched, obj)
            key = report.cycle_key
            if key not in self._seen_cycles:
                self._seen_cycles.add(key)
                self.reports.append(enriched)
                self.reports_filed += 1
                if len(self.reports) > MAX_TENANT_REPORTS:
                    self._seen_cycles.discard(self.reports.pop(0).cycle_key)
                    self._m_evicted.inc()
        return enriched, obj

    # -- introspection -------------------------------------------------
    def health_doc(self) -> dict:
        """The tenant's slice of the ``/healthz`` document."""
        from repro.obs.health import unique_report_entries

        with self._lock:
            blocked = sum(
                len(bucket) for bucket in self.checker.view.buckets.values()
            )
            return {
                "status": "deadlock" if self.reports else "ok",
                "tenant": self.name,
                "sites": sorted(str(s) for s in self.checker.view.sites()),
                "blocked_tasks": blocked,
                "checks": self.checks,
                "cycles_found": self.cycles_found,
                "report_count": self.reports_filed,
                "reports": unique_report_entries(self.reports),
            }

    def report_objs(self) -> List[dict]:
        from repro.trace.events import report_to_obj

        with self._lock:
            return [report_to_obj(r) for r in self.reports]


class CheckerServiceCore:
    """Request dispatch: one wire request dict in, one response dict out.

    A tenant opens with its first ``append_delta`` of a well-formed
    snapshot (or an embedder's :meth:`tenant` call); every other request
    on a name that never published, a refused append included, answers
    what an empty tenant would and keeps nothing, so neither read
    traffic nor refused writes can grow the tenant table or the metric
    series.
    Request fields are typed, never coerced: ``tenant`` (default
    :data:`DEFAULT_TENANT`), ``site`` and ``stream`` (may be null) are
    strings, ``after_seq`` a non-negative ``int``.  ``store_factory``
    lets embedders hand specific tenants specific stores (the network-
    partition suite backs a tenant with a :class:`ReplicatedStore`).
    """

    def __init__(
        self,
        model: GraphModel = GraphModel.AUTO,
        metrics=None,
        tracer=None,
        store_factory: Optional[Callable[[str], object]] = None,
    ) -> None:
        if metrics is None:
            metrics = NULL_REGISTRY
        self.metrics = metrics
        self.model = model
        self.tracer = tracer
        self.store_factory = store_factory
        self.tenants: Dict[str, TenantChecker] = {}
        self._tenants_lock = threading.Lock()
        self._m_requests = metrics.counter(
            "repro_net_requests_total",
            "Checker-service requests served, by operation.",
            labels=("op",),
        )
        self._m_errors = metrics.counter(
            "repro_net_errors_total",
            "Checker-service requests answered with a typed error.",
            labels=("error",),
        )
        # op -> (its ``_op_*`` handler, its child of the request counter:
        # bound once, the series still appears with the first request).
        self._ops: Dict[str, tuple] = {
            op: (getattr(self, f"_op_{op}"), self._m_requests.labels(op=op))
            for op in ("append_delta", "get_deltas", "get_state",
                       "delta_tail", "delta_sites", "delete", "check",
                       "reports", "health", "ping")
        }

    # -- tenancy -------------------------------------------------------
    def tenant(self, name: str) -> TenantChecker:
        name = str(name)
        with self._tenants_lock:
            tenant = self.tenants.get(name)
            if tenant is None:
                store = (
                    self.store_factory(name)
                    if self.store_factory is not None else None
                )
                tenant = TenantChecker(
                    name, store=store, model=self.model,
                    metrics=self.metrics, tracer=self.tracer,
                )
                self.tenants[name] = tenant
        return tenant

    def tenant_names(self) -> List[str]:
        with self._tenants_lock:
            return sorted(self.tenants)

    # -- the obs-server integration surface ----------------------------
    def health_doc(self, tenant: Optional[str] = None) -> dict:
        """Aggregate (or per-tenant) ``/healthz`` document.  Unknown
        tenant names raise :class:`KeyError` (the HTTP layer 404s)."""
        if tenant is not None:
            with self._tenants_lock:
                entry = self.tenants[str(tenant)]
            return entry.health_doc()
        with self._tenants_lock:
            tenants = dict(self.tenants)
        docs = {name: t.health_doc() for name, t in sorted(tenants.items())}
        deadlocked = sorted(
            name for name, doc in docs.items() if doc["status"] != "ok"
        )
        return {
            "status": "deadlock" if deadlocked else "ok",
            "mode": "checker-service",
            "tenant_count": len(docs),
            "deadlocked_tenants": deadlocked,
            "tenants": docs,
        }

    def tracer_for(self, tenant: Optional[str] = None):
        """The span source ``/spans`` renders: the service-wide tracer
        (tenants share it — span tracks are labelled per tenant store)."""
        return self.tracer

    # -- dispatch ------------------------------------------------------
    def handle(self, request) -> dict:
        if not isinstance(request, Mapping) or "op" not in request:
            return {"ok": False, "error": "protocol",
                    "message": "request must be an object with an 'op'"}
        op = request["op"]
        # A non-string op (unhashable ones included) is as unknown as a
        # misspelt one: answered, not raised, and counted nowhere.
        entry = self._ops.get(op) if isinstance(op, str) else None
        if entry is None:
            return {"ok": False, "error": "protocol",
                    "message": f"unknown op {op!r}"}
        handler, requests = entry
        requests.inc()
        try:
            value = handler(request)
        except DeltaSequenceError as exc:
            self._m_errors.inc(error="sequence")
            return {"ok": False, "error": "sequence", "message": str(exc)}
        except StoreUnavailableError as exc:
            self._m_errors.inc(error="unavailable")
            return {"ok": False, "error": "unavailable", "message": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            self._m_errors.inc(error="value")
            return {"ok": False, "error": "value",
                    "message": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # never let one request kill the server
            log.exception("checker service: %s request failed", op)
            self._m_errors.inc(error="internal")
            return {"ok": False, "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}
        return ACK if value is None else {"ok": True, "value": value}

    def _reader_of(self, request) -> TenantChecker:
        """The tenant a request names, without opening it: a name that
        never published is answered by an empty tenant that records
        into no registry and is not kept."""
        name = _text(request, "tenant", DEFAULT_TENANT)
        with self._tenants_lock:
            tenant = self.tenants.get(name)
        return tenant if tenant is not None else TenantChecker(
            name, model=self.model
        )

    # -- per-op handlers ----------------------------------------------
    def _op_append_delta(self, request):
        from repro.trace.events import delta_payload_from_obj

        name = _text(request, "tenant", DEFAULT_TENANT)
        site = _text(request, "site")
        payload = delta_payload_from_obj(request["obj"])
        with self._tenants_lock:
            tenant = self.tenants.get(name)
        if tenant is None:
            # Only a snapshot extends an empty stream, so only a snapshot
            # opens a tenant: anything else is refused here, with the
            # store's own error, before a store or a series exists.
            validate_extends(None, site, payload)
            tenant = self.tenant(name)
        tenant._append(site, payload)
        return None

    def _op_get_deltas(self, request):
        after_seq = request["after_seq"]
        if type(after_seq) is not int or after_seq < 0:
            raise ValueError(
                f"after_seq must be a non-negative int, got {after_seq!r}"
            )
        stream = request.get("stream")
        return self._reader_of(request).get_deltas(
            _text(request, "site"), after_seq,
            stream if stream is None else _text(request, "stream"),
        )

    def _op_get_state(self, request):
        stream, seq, state = self._reader_of(request).get_state(
            _text(request, "site")
        )
        return [stream, seq, state]

    def _op_delta_tail(self, request):
        tail = self._reader_of(request).delta_tail(_text(request, "site"))
        return None if tail is None else [tail[0], tail[1]]

    def _op_delta_sites(self, request):
        return self._reader_of(request).delta_sites()

    def _op_delete(self, request):
        self._reader_of(request).delete(_text(request, "site"))
        return None

    def _op_check(self, request):
        return self._reader_of(request).check_obj()

    def _op_reports(self, request):
        return self._reader_of(request).report_objs()

    def _op_health(self, request):
        if "tenant" not in request:
            return self.health_doc(None)
        return self._reader_of(request).health_doc()

    def _op_ping(self, request):
        return {"server": "repro-checker", "tenants": self.tenant_names()}
