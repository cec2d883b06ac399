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
  rates and multi-window alerts;
* :mod:`repro.telemetry.openmetrics` — OpenMetrics text exposition;
* :mod:`repro.telemetry.export` — JSON-lines, Chrome trace-event, and
  text exporters, plus the unified spans+metrics+dispatch artifact;
* :mod:`repro.telemetry.stats` — the shared percentile implementation.

A :class:`Telemetry` bundles one tracer and one registry — and, with
``per_function=True``, the trace miner, guest profiler and SLO registry,
fed from the tracer's span-finish callback; each
:class:`~repro.runtime.cluster.FaasmCluster` owns one (disabled by
default — the off path is a single context-variable read per
instrumentation site).
"""

from __future__ import annotations

from . import export
from .metrics import Counter, Gauge, MetricsRegistry
from .profiler import ContinuousProfiler
from .profiles import AccessProfile, ProfileStore, TraceMiner
from .slo import SLO, SLORegistry
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

    ``per_function=True`` turns on the per-function plane: a
    :class:`TraceMiner` folding every finished span into access profiles,
    an :class:`SLORegistry` tracking every function's ``call.invoke``
    latency against its objective, and a :class:`ContinuousProfiler` the
    runtime taps into every Faaslet it spawns. The miner and the SLOs
    consume sampled spans, so they need ``enabled=True`` to see anything.
    """

    def __init__(
        self,
        enabled: bool = False,
        sample_rate: float = 1.0,
        per_function: bool = False,
    ):
        self.metrics = MetricsRegistry()
        self.profiles: TraceMiner | None = None
        self.profiler: ContinuousProfiler | None = None
        self.slos: SLORegistry | None = None
        if per_function:
            self.profiles = TraceMiner(self.metrics)
            self.profiler = ContinuousProfiler()
            self.slos = SLORegistry()
        self.tracer = Tracer(
            enabled=enabled,
            sample_rate=sample_rate,
            on_finish=self._observe_span,
        )

    def _observe_span(self, finished: Span) -> None:
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
    def spans(self) -> list[Span]:
        return self.tracer.finished_spans()


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
    "context_from_wire",
    "current_context",
    "export",
    "percentile",
    "span",
    "summarize",
]
