"""Observability: request tracing and Prometheus exposition.

Three stdlib-only layers over the serving and distributed subsystems:

* :mod:`repro.obs.trace` — spans (``trace_id``/``span_id``/``parent_id``,
  monotonic-ns timestamps, attrs), a :class:`Tracer` with context-local
  propagation, a bounded ring :class:`TraceStore`, and the
  ``X-Repro-Trace`` header contract that lets a client continue its own
  trace into a server's;
* :mod:`repro.obs.prometheus` — the text exposition (format 0.0.4) renderer
  behind ``GET /metrics`` and the strict parser the CI smoke checks use;
* :mod:`repro.obs.aggregate` — the ``repro trace`` client: fetch one
  server's traces and render the span tree.  Imported lazily by the CLI,
  so it is *not* re-exported here.

Retention and alerting belong to whatever scrapes ``GET /metrics``: the
latency histograms it exports are all a burn-rate rule needs (see
``docs/observability.md``).

Tracing observes, never touches: spans never see scores, and every
bitwise-equivalence pin holds with tracing on (the default).
"""

from repro.obs.process import process_rss_bytes, process_stats
from repro.obs.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRenderer,
    parse_prometheus_text,
    render_server_metrics,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    StageMetrics,
    Tracer,
    TraceStore,
    current_span,
    current_trace_id,
    format_trace_header,
    get_tracer,
    parse_trace_header,
    set_tracer,
)

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "MetricsRenderer",
    "Span",
    "StageMetrics",
    "TRACE_HEADER",
    "TraceStore",
    "Tracer",
    "current_span",
    "current_trace_id",
    "format_trace_header",
    "get_tracer",
    "parse_prometheus_text",
    "parse_trace_header",
    "process_rss_bytes",
    "process_stats",
    "render_server_metrics",
    "set_tracer",
]
