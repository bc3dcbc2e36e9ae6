"""Unified telemetry: event tracing, metrics registry, decision audit.

The observability layer behind ``run_experiment``:

* :mod:`repro.telemetry.events` — :class:`Tracer` and the typed
  :class:`TraceEvent` stream (zero-cost when disabled);
* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` with
  counter blocks and labelled counters, gauges, and histograms;
* :mod:`repro.telemetry.exporters` — JSONL, Chrome ``chrome://tracing``,
  and Prometheus text formats (plus parsers used as validators);
* :mod:`repro.telemetry.explain` — the operator decision-audit timeline;
* :mod:`repro.telemetry.session` — per-run wiring
  (:class:`TelemetryConfig`, :class:`TelemetrySession`) and the CLI's
  multi-run :class:`TraceSink`.

See DESIGN.md §9 for the event taxonomy and the overhead stance.
"""

from repro.telemetry.events import NULL_TRACER, TraceEvent, Tracer
from repro.telemetry.explain import decision_events, explain_decisions
from repro.telemetry.exporters import (
    chrome_trace,
    events_to_jsonl,
    parse_prometheus_text,
    prometheus_text,
    read_events_jsonl,
    read_runs_jsonl,
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus_text,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.session import (
    TelemetryConfig,
    TelemetrySession,
    TraceSink,
    default_sink,
    default_telemetry,
    set_default_telemetry,
)

__all__ = [
    "NULL_TRACER",
    "TraceEvent",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryConfig",
    "TelemetrySession",
    "TraceSink",
    "chrome_trace",
    "decision_events",
    "default_sink",
    "default_telemetry",
    "events_to_jsonl",
    "explain_decisions",
    "parse_prometheus_text",
    "prometheus_text",
    "read_events_jsonl",
    "read_runs_jsonl",
    "set_default_telemetry",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_prometheus_text",
]
