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
* :mod:`repro.telemetry.profiles` — the online trace miner folding
  finished spans into persisted per-function access profiles;
* :mod:`repro.telemetry.profiler` — the continuous guest profiler and
  its collapsed-stack / speedscope flamegraph exporters;
* :mod:`repro.telemetry.slo` — rolling-window SLO monitors with burn
  rates and baseline regression flags;
* :mod:`repro.telemetry.openmetrics` — OpenMetrics text exposition and
  the message-bus scrape endpoint;
* :mod:`repro.telemetry.export` — JSON-lines, Chrome trace-event, and
  text exporters, plus the unified spans+metrics+dispatch artifact;
* :mod:`repro.telemetry.stats` — the shared percentile implementation.

A :class:`Telemetry` bundles one tracer and one registry — and,
opted in, the trace miner, guest profiler and SLO registry, all fed from
the tracer's span-finish callback; each
:class:`~repro.runtime.cluster.FaasmCluster` owns one (disabled by
default — the off path is a single context-variable read per
instrumentation site).
"""

from __future__ import annotations

from . import export
from .metrics import Counter, Gauge, MetricsRegistry
from .profiler import ContinuousProfiler
from .profiles import AccessProfile, ProfileStore, TraceMiner
from .slo import SLO, SLORegistry, check_regression
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

    With ``record_span_metrics`` every finished span also lands in a
    ``span.<name>`` histogram (labelled by host), so phase latency
    distributions are queryable without walking the span list.

    ``mine_profiles=True`` attaches a :class:`TraceMiner` to the same
    span-finish callback — per-function access profiles accumulate
    online. ``guest_profiler=True`` creates a :class:`ContinuousProfiler`
    the runtime taps into every Faaslet it spawns. ``slos=True`` (or an
    :class:`SLORegistry`) tracks every function's ``call.invoke``
    latency against its objective. All three require ``enabled=True`` to
    see anything: they consume sampled spans.
    """

    def __init__(
        self,
        enabled: bool = False,
        sample_rate: float = 1.0,
        record_span_metrics: bool = True,
        max_spans: int = 100_000,
        mine_profiles: bool = False,
        guest_profiler: bool = False,
        profiler_interval: int = 64,
        slos: "SLORegistry | bool" = False,
    ):
        self.metrics = MetricsRegistry()
        self.profiles: TraceMiner | None = (
            TraceMiner() if mine_profiles else None
        )
        self.profiler: ContinuousProfiler | None = (
            ContinuousProfiler(interval=profiler_interval)
            if guest_profiler
            else None
        )
        if slos is True:
            self.slos: SLORegistry | None = SLORegistry()
        else:
            self.slos = slos or None
        self._record_span_metrics = record_span_metrics
        need_callback = (
            record_span_metrics
            or self.profiles is not None
            or self.slos is not None
        )
        self.tracer = Tracer(
            enabled=enabled,
            sample_rate=sample_rate,
            max_spans=max_spans,
            on_finish=self._observe_span if need_callback else None,
        )

    def _observe_span(self, finished: Span) -> None:
        if self._record_span_metrics:
            self.metrics.histogram(
                "span." + finished.name, host=finished.host or ""
            ).observe(finished.duration)
        if finished.name == "call.invoke":
            function = finished.attrs.get("function", "?")
            self.metrics.histogram(
                "function.latency", function=function
            ).observe(finished.duration)
            if self.slos is not None:
                self.slos.observe(
                    function,
                    finished.duration,
                    error=finished.attrs.get("return_code", 0) not in (0, None),
                )
        elif finished.name == "guest.exec":
            fuel = finished.attrs.get("fuel_consumed")
            if fuel is not None:
                self.metrics.histogram(
                    "function.fuel",
                    function=finished.attrs.get("function", "?"),
                ).observe(fuel)
        if self.profiles is not None:
            self.profiles.fold(finished)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def spans(self) -> list[Span]:
        return self.tracer.finished_spans()

    def clear_spans(self) -> None:
        self.tracer.clear()


__all__ = [
    "AccessProfile",
    "ContinuousProfiler",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ProfileStore",
    "SLO",
    "SLORegistry",
    "Span",
    "SpanHandle",
    "StreamingHistogram",
    "Telemetry",
    "TraceContext",
    "TraceMiner",
    "Tracer",
    "check_regression",
    "context_from_wire",
    "current_context",
    "export",
    "percentile",
    "span",
    "summarize",
]
