"""Observability plane for the serving stack (no external dependencies).

Four pieces, layered so the hot path stays cheap:

* :mod:`repro.obs.trace` — request-scoped :class:`Trace` spans riding a
  context variable through router, workers and executor threads
  (:func:`carry_context` is the thread-pool boundary glue);
* :mod:`repro.obs.metrics` — Prometheus-style counters, gauges and
  fixed-bucket histograms with a text-exposition renderer and the
  matching round-trip parser;
* :mod:`repro.obs.serving` — :class:`ServingMetrics`, the named metric
  families of the serving stack, folded from finished traces once per
  request;
* :mod:`repro.obs.logs` — :class:`RequestLog`, structured JSON request
  logs with deterministic slow-query sampling (threshold + bounded
  slowest-K reservoir);
* :mod:`repro.obs.dashboard` — the ``repro top`` terminal dashboard
  over ``GET /stats`` + ``GET /metrics``.

The operator-facing contract (metric names, label sets, trace stages,
scrape guidance) lives in ``docs/observability.md``.
"""

from repro.obs.logs import RequestLog
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    parse_prometheus_text,
)
from repro.obs.serving import ServingMetrics
from repro.obs.trace import (
    Span,
    Trace,
    add_counts,
    annotate,
    carry_context,
    current_trace,
    span,
    start_trace,
)

__all__ = [
    "Span",
    "Trace",
    "annotate",
    "add_counts",
    "carry_context",
    "current_trace",
    "span",
    "start_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "histogram_quantile",
    "parse_prometheus_text",
    "ServingMetrics",
    "RequestLog",
]
