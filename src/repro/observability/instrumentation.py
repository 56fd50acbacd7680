"""The instrumentation facade: one metric registry and one tracer.

Every instrumented component (the rekey pipeline, the servers, the
transports, the experiment runner) takes an :class:`Instrumentation` and
reports through it:

* ``registry`` — the labeled :class:`~repro.observability.metrics.
  MetricRegistry` behind snapshots, Prometheus exposition and the
  ``repro-metrics/1`` reports;
* ``tracer`` — span tracing (default :data:`~repro.observability.spans.
  NULL_TRACER`: zero overhead unless a caller opts in).

:meth:`Instrumentation.record_run` folds each pipeline run's
:class:`~repro.observability.timers.StageClock` (CPU seconds) into the
``rekey_seconds{op,status}`` and ``rekey_stage_seconds{op,stage}``
histograms.  :data:`NULL_INSTRUMENTATION` swallows everything for hot
paths that want no accounting at all; its ``registry``/``tracer`` are
the null implementations, so wiring code can declare metric families
and open spans unconditionally.
"""

from __future__ import annotations

from typing import Optional, Union

from .metrics import (LATENCY_BUCKETS_S, MetricRegistry, NULL_REGISTRY,
                      NullMetricRegistry)
from .spans import NULL_TRACER, NullTracer, Tracer
from .timers import StageClock


class Instrumentation:
    """A labeled metric registry plus a span tracer."""

    __slots__ = ("name", "registry", "tracer", "_run_seconds",
                 "_stage_seconds")

    def __init__(self, name: str = "",
                 registry: Optional[Union[MetricRegistry,
                                          NullMetricRegistry]] = None,
                 tracer: Optional[Union[Tracer, NullTracer]] = None):
        self.name = name
        self.registry = registry if registry is not None else MetricRegistry(
            name)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._run_seconds = self.registry.histogram(
            "rekey_seconds",
            "End-to-end rekey pipeline CPU time (server processing time).",
            labels=("op", "status"), bounds=LATENCY_BUCKETS_S)
        self._stage_seconds = self.registry.histogram(
            "rekey_stage_seconds",
            "Per-stage rekey pipeline CPU time (plan/encrypt/sign/dispatch).",
            labels=("op", "stage"), bounds=LATENCY_BUCKETS_S)

    def record_run(self, op: str, clock: StageClock) -> None:
        """Fold one pipeline run's :class:`StageClock` into the histograms.

        Each stage lands in ``rekey_stage_seconds{op,stage}`` and the
        total in ``rekey_seconds{op,status}``, with ``status="error"``
        when the clock carries an error flag (a stage body raised), so
        failed rekeys stay visible.
        """
        for stage_name, seconds in clock.stages.items():
            self._stage_seconds.labels(op=op, stage=stage_name).observe(
                seconds)
        status = "error" if clock.error else "ok"
        self._run_seconds.labels(op=op, status=status).observe(clock.total)


class NullInstrumentation:
    """Drops everything: for hot paths that want zero accounting."""

    __slots__ = ()

    name = ""
    registry = NULL_REGISTRY
    tracer = NULL_TRACER

    def record_run(self, op: str, clock: StageClock) -> None:
        """Discard."""


NULL_INSTRUMENTATION = NullInstrumentation()
