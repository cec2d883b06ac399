"""Metrics for simulated experiments: latency, transfers, billable memory.

*Billable memory* follows §6.1: the product of peak function memory and
function runtime, summed over invocations, in GB-seconds — the unit many
serverless platforms bill in. State and container/Faaslet overheads are
included by the platforms when they report per-invocation peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# One percentile implementation serves every sample list in the repo: this
# module, the ingestion plane and the span exporters all share it
# (re-exported here because `sim.metrics.percentile` is the historic import
# path).
from repro.telemetry.stats import percentile
from repro.telemetry.streaming import StreamingHistogram

GB = 1e9

__all__ = [
    "GB",
    "BillableMemory",
    "ExperimentMetrics",
    "LatencyRecorder",
    "StreamingLatencyRecorder",
    "TransferTotals",
    "percentile",
]


@dataclass
class LatencyRecorder:
    """Collects per-request latencies (seconds)."""

    samples: list[float] = field(default_factory=list)

    def record(self, latency: float) -> None:
        self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    def median(self) -> float:
        return percentile(self.samples, 50)

    def p(self, pct: float) -> float:
        return percentile(self.samples, pct)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def cdf(self, points: int = 100) -> list[tuple[float, float]]:
        """(latency, fraction of requests ≤ latency) pairs."""
        ordered = sorted(self.samples)
        n = len(ordered)
        return [
            (ordered[min(n - 1, math.ceil(i * n / points) - 1)], i / points)
            for i in range(1, points + 1)
        ]


class StreamingLatencyRecorder:
    """Drop-in :class:`LatencyRecorder` at O(1) memory.

    Backed by a log-bucketed :class:`StreamingHistogram`, so million-call
    simulated soaks get unbiased long-run p50/p99 without retaining every
    sample (percentiles carry the histogram's ~3.9% bucket error; no
    ``samples`` list, no ``cdf``).
    """

    def __init__(self) -> None:
        self.hist = StreamingHistogram()

    def record(self, latency: float) -> None:
        self.hist.observe(latency)

    @property
    def count(self) -> int:
        return self.hist.count

    def median(self) -> float:
        return self.hist.percentile(50)

    def p(self, pct: float) -> float:
        return self.hist.percentile(pct)

    def mean(self) -> float:
        return self.hist.mean()


@dataclass
class BillableMemory:
    """Accumulates peak-memory × duration in GB-seconds."""

    gb_seconds: float = 0.0
    invocations: int = 0

    def record(self, peak_bytes: int, duration_s: float) -> None:
        self.gb_seconds += (peak_bytes / GB) * duration_s
        self.invocations += 1


@dataclass
class TransferTotals:
    """Cluster-wide network transfer accounting (sent + received)."""

    bytes_total: int = 0
    transfers: int = 0

    def record(self, nbytes: int) -> None:
        # Both endpoints see the bytes, as §6.2 counts "sent + recv".
        self.bytes_total += 2 * nbytes
        self.transfers += 1

    @property
    def gigabytes(self) -> float:
        return self.bytes_total / GB


@dataclass
class ExperimentMetrics:
    """The bundle every simulated platform maintains."""

    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    billable: BillableMemory = field(default_factory=BillableMemory)
    transfers: TransferTotals = field(default_factory=TransferTotals)
    cold_starts: int = 0
    warm_starts: int = 0
    failures: int = 0
