"""Unified telemetry: tracing, metrics, flight recording, explanations.

The observability layer the rest of the pipeline reports into:

* :mod:`repro.obs.trace`   -- span tracer (session -> job -> phase ->
  search-quantum -> solver-query), ``esd-trace-v1`` documents, Chrome
  trace-event conversion, per-phase wall-clock attribution.
* :mod:`repro.obs.metrics` -- counters/gauges/histograms, the
  ``esd-metrics-v1`` snapshot schema, Prometheus text rendering, and
  the monotonic-snapshot/delta discipline that replaced ad-hoc stat
  sampling in the benchmarks.
* :mod:`repro.obs.flight`  -- the search flight recorder: one compact
  record per state transition (pick score, lineage, termination/prune
  attribution, solver-query linkage), ``esd-searchlog-v1`` documents.
* :mod:`repro.obs.observer` -- the one hook a search reports into.
* :mod:`repro.obs.explain` -- turn a flight log into answers: the goal
  path's decision chain, budget spend per subsystem/function, and
  two-log diffs (``repro explain``).
* :mod:`repro.obs.history` -- durable per-host benchmark history with
  configurable regression gating (``repro bench --history``).

Zero third-party dependencies; importing this package pulls in nothing
beyond the stdlib and :mod:`repro.schema`.
"""

from .explain import diff_flights, explain_flight, render_diff, render_explain
from .flight import (
    FLIGHT_FORMAT,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    check_flight_document,
    load_flight,
)
from .history import append_entry, compare_latest, load_history, render_compare
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    METRICS_FORMAT,
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_metrics_document,
    counters_delta,
    unified_registry,
)
from .observer import SearchObserver
from .trace import (
    TRACE_FORMAT,
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    check_trace_document,
    chrome_trace,
    load_trace,
    phase_summary,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "FLIGHT_FORMAT",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "METRICS_FORMAT",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "SearchObserver",
    "Span",
    "TRACE_FORMAT",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "append_entry",
    "check_flight_document",
    "check_metrics_document",
    "check_trace_document",
    "chrome_trace",
    "compare_latest",
    "counters_delta",
    "diff_flights",
    "explain_flight",
    "load_flight",
    "load_history",
    "load_trace",
    "phase_summary",
    "render_compare",
    "render_diff",
    "render_explain",
    "unified_registry",
]
