"""repro.obs — the observability plane of the verification stack.

Metrics (counters / gauges / fixed-bucket histograms), causal tracing
with deterministic span IDs and deadlock provenance
(:mod:`repro.obs.tracing`), and structured health, with
exporters (Prometheus text, canonical JSON, Chrome trace-event JSON)
and a one-file HTTP endpoint (``python -m repro.obs serve``).

The contract every layer builds on:

* snapshots are deterministic (sorted, and — excluding ``volatile``
  wall-clock instruments — a pure function of the event stream);
* ``merge`` is associative and commutative (parallel-replay fan-in);
* the disabled path (:data:`NULL_REGISTRY`) is near-free and changes
  no behaviour.
"""

from repro.obs.export import parse_prometheus, to_json, to_prometheus
from repro.obs.health import health_status, runtime_health
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    OriginTracker,
    Tracer,
    TraceSpan,
    attach_provenance,
    chrome_trace_from_records,
    render_report_provenance,
    span_id,
    spans_to_chrome,
    validate_chrome_trace,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "to_prometheus",
    "to_json",
    "parse_prometheus",
    "runtime_health",
    "health_status",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceSpan",
    "OriginTracker",
    "span_id",
    "attach_provenance",
    "spans_to_chrome",
    "chrome_trace_from_records",
    "validate_chrome_trace",
    "render_report_provenance",
]
