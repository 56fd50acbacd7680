"""Shared observability core: metrics, spans, clocks, exporters.

The repo's rekey paths all report through this package so that every
paper-facing number (processing time, encryption counts, message
counts/sizes) derives from one instrumentation source:

* :class:`~repro.observability.metrics.MetricRegistry` — thread-safe
  labeled :class:`~repro.observability.metrics.Counter` /
  :class:`~repro.observability.metrics.Gauge` /
  :class:`~repro.observability.metrics.Histogram` families with
  fixed log-scale buckets, ``snapshot()``/``merge()`` for aggregating
  across workers, and :data:`~repro.observability.metrics.NULL_REGISTRY`
  as the zero-overhead default;
* :class:`~repro.observability.spans.Tracer` — hierarchical spans with
  stable trace/span IDs, implicit in-process propagation and an
  out-of-band wire trailer for cross-process propagation
  (:data:`~repro.observability.spans.NULL_TRACER` by default);
* :mod:`~repro.observability.export` — Prometheus text exposition and
  the versioned ``repro-metrics/1`` JSON snapshot, plus the
  ``python -m repro.observability report`` CLI;
* :class:`~repro.observability.timers.StageClock` — per-run stage
  timings on the thread's CPU clock, with failed stages flagged rather
  than dropped; :class:`~repro.observability.timers.Stopwatch` — wall
  time for regions that wait;
* :class:`~repro.observability.instrumentation.Instrumentation` — the
  registry + tracer facade components take; its ``record_run`` folds
  a StageClock into the ``rekey_seconds``/``rekey_stage_seconds``
  histograms.  :data:`NULL_INSTRUMENTATION` is for callers that want
  no accounting at all;
* :class:`~repro.observability.flight.FlightRecorder` — the always-on
  bounded event ring dumped to JSON on error/SLO breach/signal;
* :mod:`~repro.observability.slo` — declarative latency/availability
  objectives evaluated over metric snapshots, with burn rates;
* :mod:`~repro.observability.timeline` — the text waterfall renderer
  over exported spans (``python -m repro.observability timeline``).
"""

from .flight import (FLIGHT_SCHEMA, FlightError, FlightRecorder,
                     validate_flight)
from .instrumentation import (NULL_INSTRUMENTATION, Instrumentation,
                              NullInstrumentation)
from .metrics import (COUNT_BUCKETS, LATENCY_BUCKETS_S, NULL_REGISTRY,
                      SIZE_BUCKETS_BYTES, Counter, Gauge, Histogram,
                      MetricError, MetricRegistry, NullMetricRegistry,
                      merge_snapshots)
from .slo import (SLO, SLOError, SLOStatus, burn_rate, evaluate,
                  parse_slo, render_slo_report, slos_from_spec_text)
from .spans import (NULL_TRACER, NullTracer, Span, SpanContext, Tracer,
                    attach_trace_trailer, split_trace_trailer)
from .timeline import render_timeline, render_trace_index, trace_ids
from .timers import StageClock, Stopwatch

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "NULL_INSTRUMENTATION",
    "MetricRegistry",
    "NullMetricRegistry",
    "NULL_REGISTRY",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS_BYTES",
    "COUNT_BUCKETS",
    "merge_snapshots",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanContext",
    "attach_trace_trailer",
    "split_trace_trailer",
    "StageClock",
    "Stopwatch",
    "FlightRecorder",
    "FlightError",
    "FLIGHT_SCHEMA",
    "validate_flight",
    "SLO",
    "SLOError",
    "SLOStatus",
    "parse_slo",
    "slos_from_spec_text",
    "evaluate",
    "burn_rate",
    "render_slo_report",
    "render_timeline",
    "render_trace_index",
    "trace_ids",
]
