"""Observability for quality-view execution: metrics, spans, events.

The paper's Qurator framework is meant to run quality views
continuously inside production pipelines; this subsystem makes that
execution *inspectable from outside* instead of only through
runtime-local objects:

* :mod:`~repro.observability.registry` — a thread-safe
  :class:`MetricRegistry` of labeled counters, gauges, and
  fixed-bucket histograms, with a process-wide default that the
  workflow, runtime, resilience, RDF, and annotation layers write to
  (names follow ``repro_<subsystem>_<name>[_unit]``);
* :mod:`~repro.observability.spans` — hierarchical spans with
  parent/child links; context propagates across the runtime's thread
  hops (worker pool, wavefront pool), and each trace's
  root span accumulates exact per-job counts (the annotation-cache
  attribution rides on this);
* :mod:`~repro.observability.events` — a structured JSON-lines event
  log with a bounded ring buffer and pluggable sinks;
* :mod:`~repro.observability.export` — a Prometheus text-format
  renderer (``text/plain; version=0.0.4``), a JSON snapshot that joins
  metrics with ``ServiceRegistry.health()`` breaker states and runtime
  aggregates, and a stdlib HTTP endpoint (``python -m repro metrics``).

Disable everything with :func:`disable` (installs a
:class:`NullRegistry`, a :class:`~repro.observability.events.NullEventLog`,
and switches span creation off); benchmark E15 pins the fully
instrumented overhead at <= 5% of that baseline.
"""

from typing import Any, Dict

from repro.observability.events import (
    CallbackSink,
    EventLog,
    JsonLinesFileSink,
    NullEventLog,
    RingBufferSink,
    get_event_log,
    set_event_log,
)
from repro.observability.export import (
    PROMETHEUS_CONTENT_TYPE,
    json_snapshot,
    render_prometheus,
    serve_in_background,
    serve_metrics,
    serve_until_interrupt,
    write_telemetry,
)
from repro.observability.registry import (
    DEFAULT_LATENCY_BUCKETS,
    METRIC_NAME_RE,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricRegistry,
    NullRegistry,
    get_registry,
    set_default_registry,
)
from repro.observability.spans import (
    Span,
    SpanRecorder,
    add_to_current,
    clear_recorded_spans,
    current_span,
    recent_spans,
    set_tracing,
    start_span,
    tracing_enabled,
    use_span,
)


def disable() -> Dict[str, Any]:
    """Turn telemetry off entirely; returns state for :func:`restore`.

    Installs a :class:`NullRegistry` and a :class:`NullEventLog` and
    stops span creation (the runtime's per-job attribution spans keep
    working — see :mod:`~repro.observability.spans`).
    """
    return {
        "registry": set_default_registry(NullRegistry()),
        "event_log": set_event_log(NullEventLog()),
        "tracing": set_tracing(False),
    }


def restore(state: Dict[str, Any]) -> None:
    """Undo a :func:`disable` (or any saved swap of the defaults)."""
    set_default_registry(state["registry"])
    set_event_log(state["event_log"])
    set_tracing(state["tracing"])


__all__ = [
    "CallbackSink",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonLinesFileSink",
    "METRIC_NAME_RE",
    "MetricError",
    "MetricRegistry",
    "NullEventLog",
    "NullRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "RingBufferSink",
    "Span",
    "SpanRecorder",
    "add_to_current",
    "clear_recorded_spans",
    "current_span",
    "disable",
    "get_event_log",
    "get_registry",
    "json_snapshot",
    "recent_spans",
    "render_prometheus",
    "restore",
    "serve_in_background",
    "serve_metrics",
    "serve_until_interrupt",
    "set_default_registry",
    "set_event_log",
    "set_tracing",
    "start_span",
    "tracing_enabled",
    "use_span",
    "write_telemetry",
]
