"""Structured health for a live runtime: the ``/healthz`` payload.

A health document is the operator's one-glance answer to "is this
verifier alive, and did it find anything": verification mode, blocked
population, check counts, and every distinct deadlock report collected
so far (repeat detections of the same cycle fold into one entry, with
``report_count`` keeping the raw total).
It deliberately reads only public runtime surface
(:class:`~repro.runtime.verifier.ArmusRuntime` attributes and the
checker's stats view), so it works for any mode and either checker
engine.
"""

from __future__ import annotations

__all__ = ["runtime_health", "health_status", "unique_report_entries"]


def health_status(runtime) -> str:
    """``"deadlock"`` once any report exists, ``"ok"`` otherwise."""
    return "deadlock" if runtime.reports else "ok"


def unique_report_entries(reports) -> list:
    """Distinct deadlock reports as health-document entries.

    A deadlock that clears and recurs is filed again each time;
    embedding each repeat would grow the document without bound on a
    long-lived endpoint, so distinct cycles are listed once each
    (first-seen order) and ``report_count`` keeps the raw total.
    Shared by the runtime health document and the checker service's
    per-tenant health docs.
    """
    seen = set()
    unique = []
    for report in reports:
        entry = {
            "tasks": sorted(str(t) for t in report.tasks),
            "events": sorted(str(e) for e in report.events),
            "model": report.model_used.value,
            "avoided": report.avoided,
        }
        key = (tuple(entry["tasks"]), tuple(entry["events"]),
               entry["model"], entry["avoided"])
        if key not in seen:
            seen.add(key)
            unique.append(entry)
    return unique


def runtime_health(runtime, registry=None) -> dict:
    """Build the ``/healthz`` document for ``runtime``.

    ``registry`` (optional) adds an ``instruments`` count so a scraper
    can sanity-check that the metrics plane is actually wired.
    """
    checker = runtime.checker
    stats = runtime.stats
    reports = list(runtime.reports)
    doc = {
        "status": health_status(runtime),
        "mode": str(runtime.mode),
        "blocked_tasks": checker.dependency.blocked_count(),
        "checks": stats.checks,
        "cycles_found": stats.cycles_found,
        "models": {
            model.value: count
            for model, count in sorted(
                stats.model_counts.items(), key=lambda kv: kv[0].value
            )
        },
        "report_count": len(reports),
        "reports": unique_report_entries(reports),
    }
    if registry is not None:
        doc["instruments"] = len(registry.names())
    return doc
