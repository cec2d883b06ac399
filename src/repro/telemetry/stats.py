"""Shared descriptive-statistics helpers for all measurement layers.

One percentile implementation serves every list of raw samples in the
codebase: the simulator's :class:`~repro.sim.metrics.LatencyRecorder`, the
ingestion plane's sojourn percentiles and the span-summary exporters all
call :func:`percentile` here, so every p50/p99 computed from samples is
computed identically (linear interpolation, the same method the paper's
kernel-density latency plots assume). Streamed series have no samples to
sort; :class:`~repro.telemetry.streaming.StreamingHistogram` answers those
from its buckets.
"""

from __future__ import annotations

import math


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (pct in [0, 100]).

    Empty input returns 0.0 — the same convention as :func:`summarize`
    (which reports zeros for an empty series), so every consumer of a
    p50/p99 in the repo sees "no data" as 0 rather than an exception.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    # This form is exactly bounded by [ordered[lo], ordered[hi]] under
    # floating point, unlike the a*(1-f) + b*f formulation.
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def summarize(values: list[float]) -> dict[str, float]:
    """count/mean/min/max/p50/p95/p99 of ``values`` (empty -> zeros)."""
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
    }
