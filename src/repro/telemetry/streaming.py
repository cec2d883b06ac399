"""Streaming log-bucketed histograms (HDR-style, O(1) memory).

A window of the most recent N observations gives recency-biased
percentiles on long runs — wrong for million-call SLO windows — and cannot
be merged across hosts. A :class:`StreamingHistogram`, the repo's one
histogram, instead keeps **logarithmic buckets**: an observation ``v``
lands in bucket ``floor(log(v) / log(growth))``, and a percentile is answered by a rank walk over the bucket counts, returning
the geometric midpoint of the bucket holding that rank.

Properties:

* **O(1) memory** — the bucket count is bounded by the dynamic range of
  the data (about 600 buckets span 1ns..1h at the default growth), not
  by the observation count.
* **Bounded relative error** — a bucket spans ``[g^k, g^(k+1))``; its
  geometric midpoint ``g^(k+0.5)`` is within a factor ``sqrt(g)`` of
  every value in the bucket, so with the default ``growth=1.08`` a
  reported quantile is within ~3.9% of the true value at that rank.
* **Mergeable** — bucket counts add, so per-host series fold into a
  cluster-wide distribution without resampling.

``count``/``sum``/``min``/``max`` stay exact over the full stream, and
reported percentiles are clamped into ``[min, max]``.
"""

from __future__ import annotations

import math
import threading

#: Default bucket growth factor: sqrt(1.08) - 1 ~ 3.9% worst-case
#: relative error on quantiles, ~180 buckets per factor of 10^6 range.
DEFAULT_GROWTH = 1.08


class StreamingHistogram:
    """Log-bucketed observation distribution with mergeable state.

    Registered through :meth:`MetricsRegistry.histogram`.
    """

    __slots__ = ("_lock", "_pos", "_neg", "_zero", "_count", "_sum",
                 "_min", "_max", "growth", "_inv_log")
    kind = "histogram"

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError("growth factor must be > 1")
        self._lock = threading.Lock()
        #: bucket index -> count, for positive / negative magnitudes.
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.growth = growth
        self._inv_log = 1.0 / math.log(growth)

    # ------------------------------------------------------------------
    def _bucket(self, magnitude: float) -> int:
        return math.floor(math.log(magnitude) * self._inv_log)

    def _representative(self, index: int) -> float:
        # Geometric midpoint of [g^i, g^(i+1)): within sqrt(g) of every
        # value that can land in the bucket.
        return self.growth ** (index + 0.5)

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value > 0.0:
                idx = self._bucket(value)
                self._pos[idx] = self._pos.get(idx, 0) + 1
            elif value < 0.0:
                idx = self._bucket(-value)
                self._neg[idx] = self._neg.get(idx, 0) + 1
            else:
                self._zero += 1

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_count(self) -> int:
        """Number of live buckets (the O(1)-memory claim, testable)."""
        with self._lock:
            return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    def _ordered_buckets(self) -> list[tuple[float, int]]:
        """(representative value, count) in ascending value order."""
        out = [
            (-self._representative(i), n)
            for i, n in sorted(self._neg.items(), reverse=True)
        ]
        if self._zero:
            out.append((0.0, self._zero))
        out.extend(
            (self._representative(i), n) for i, n in sorted(self._pos.items())
        )
        return out

    def percentile(self, pct: float) -> float:
        """Approximate percentile: the representative value of the bucket
        holding the nearest-rank observation, clamped to [min, max].
        Empty -> 0.0, matching :func:`repro.telemetry.stats.percentile`."""
        with self._lock:
            if not self._count:
                return 0.0
            buckets = self._ordered_buckets()
            lo, hi, total = self._min, self._max, self._count
        rank = round((pct / 100.0) * (total - 1))
        seen = 0
        value = buckets[-1][0]
        for rep, n in buckets:
            seen += n
            if seen > rank:
                value = rep
                break
        return min(max(value, lo), hi)

    # ------------------------------------------------------------------
    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram (same growth) into this one."""
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth "
                f"{other.growth} into {self.growth}"
            )
        with other._lock:
            pos = dict(other._pos)
            neg = dict(other._neg)
            zero, count = other._zero, other._count
            total, lo, hi = other._sum, other._min, other._max
        with self._lock:
            for i, n in pos.items():
                self._pos[i] = self._pos.get(i, 0) + n
            for i, n in neg.items():
                self._neg[i] = self._neg.get(i, 0) + n
            self._zero += zero
            self._count += count
            self._sum += total
            self._min = min(self._min, lo)
            self._max = max(self._max, hi)

    def reset(self) -> None:
        with self._lock:
            self._pos.clear()
            self._neg.clear()
            self._zero = 0
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    # ------------------------------------------------------------------
    # Serialisation (the access-profile store persists these)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def buckets(self) -> list[tuple[float, int]]:
        """(upper bound, count) pairs in ascending bound order — the
        ``le`` buckets the OpenMetrics exposition publishes."""
        with self._lock:
            out = [
                (-(self.growth ** i), n)
                for i, n in sorted(self._neg.items(), reverse=True)
            ]
            if self._zero:
                out.append((0.0, self._zero))
            out.extend(
                (self.growth ** (i + 1), n)
                for i, n in sorted(self._pos.items())
            )
        return out

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "growth": self.growth,
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "zero": self._zero,
                "pos": sorted(self._pos.items()),
                "neg": sorted(self._neg.items()),
            }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingHistogram":
        hist = cls(growth=data["growth"])
        hist._count = int(data["count"])
        hist._sum = float(data["sum"])
        if hist._count:
            hist._min = float(data["min"])
            hist._max = float(data["max"])
        hist._zero = int(data["zero"])
        hist._pos = {int(i): int(n) for i, n in data["pos"]}
        hist._neg = {int(i): int(n) for i, n in data["neg"]}
        return hist
