"""Unified telemetry: lifecycle spans, metrics registry, exporters.

The reproduction's evaluation (like the paper's §6) is an exercise in
attributing latency to lifecycle phases — cold vs. warm start,
compile/link, guest execution, state movement. This package is the one
measurement substrate every layer reports into:

* :mod:`repro.telemetry.trace` — low-overhead span tracing with
  cross-host context propagation over the message bus;
* :mod:`repro.telemetry.metrics` — the labelled counter / gauge /
  histogram registry the ad-hoc counters are views over;
* :mod:`repro.telemetry.streaming` — the one histogram: log-bucketed and
  streaming (O(1) memory, bounded relative error, no recency bias);
* :mod:`repro.telemetry.export` — JSON-lines, Chrome trace-event, and
  text exporters, plus the unified spans+metrics+dispatch artifact;
* :mod:`repro.telemetry.stats` — the shared percentile implementation.

A :class:`Telemetry` bundles one tracer and one registry; each
:class:`~repro.runtime.cluster.FaasmCluster` owns one (disabled by
default — the off path is a single context-variable read per
instrumentation site).
"""

from __future__ import annotations

from . import export
from .metrics import Counter, Gauge, MetricsRegistry
from .stats import percentile, summarize
from .streaming import StreamingHistogram
from .trace import (
    NOOP_SPAN,
    Span,
    SpanHandle,
    TraceContext,
    Tracer,
    context_from_wire,
    current_context,
    span,
)


class Telemetry:
    """One deployment's telemetry: a tracer plus a metrics registry.

    Every finished span also lands in a ``span.<name>`` histogram
    (labelled by host), so phase latency distributions are queryable
    without walking the span list.
    """

    def __init__(self, enabled: bool = False, sample_rate: float = 1.0):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            enabled=enabled,
            sample_rate=sample_rate,
            on_finish=self._observe_span,
        )

    def _observe_span(self, finished: Span) -> None:
        self.metrics.histogram(
            "span." + finished.name, host=finished.host or ""
        ).observe(finished.duration)

    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        return self.tracer.finished_spans()


__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "SpanHandle",
    "StreamingHistogram",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "context_from_wire",
    "current_context",
    "export",
    "percentile",
    "span",
    "summarize",
]
