"""The metrics registry: counters, gauges and histograms with labels.

Every ad-hoc counter the reproduction grew — ``BusStats`` delivery
counts, the state plane's ``TransferMeter``, the code cache's hit/miss
tallies, per-instance cold-start metrics — is now a *view* over metrics
registered here, so one snapshot exposes the whole system and
cluster-wide aggregation is a fold over label sets instead of a walk
over object graphs.

Metrics are keyed by ``(name, labels)``: two hosts incrementing
``state.bytes_sent`` with different ``host=`` labels get independent
series, and :meth:`MetricsRegistry.aggregate` sums a name across all its
label sets (the per-host vs. cluster-aggregated split the experiments
need). All mutations are lock-protected — the counters are shared by
dispatcher and executor threads, where an unguarded ``+=`` drops counts.
"""

from __future__ import annotations

import threading

from .streaming import StreamingHistogram


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _series_name(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic (reset-able) count."""

    __slots__ = ("_lock", "_value")
    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self):
        return self._value


class Gauge:
    """Last-set value (pool sizes, capacities, memory footprints)."""

    __slots__ = ("_lock", "_value")
    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self):
        return self._value


class MetricsRegistry:
    """Thread-safe get-or-create registry of labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls()
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> StreamingHistogram:
        """A log-bucketed streaming histogram: O(1) memory, no recency
        bias, mergeable across label sets (see
        :mod:`repro.telemetry.streaming`)."""
        return self._get(StreamingHistogram, name, labels)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def series(self, name: str) -> dict[str, object]:
        """All metrics registered under ``name``, keyed by label string."""
        with self._lock:
            return {
                _series_name(n, lk): m
                for (n, lk), m in self._metrics.items()
                if n == name
            }

    def aggregate(self, name: str) -> float:
        """Sum of a counter/gauge across every label set (cluster-wide
        view of a per-host metric); histograms aggregate their counts."""
        total = 0.0
        with self._lock:
            metrics = [m for (n, _), m in self._metrics.items() if n == name]
        for m in metrics:
            total += m.count if m.kind == "histogram" else m.value
        return total

    def items(self) -> list[tuple[str, dict, object]]:
        """(name, labels, metric) for every registered series — the raw
        iteration the OpenMetrics exposition renders from."""
        with self._lock:
            return [
                (name, dict(label_key), metric)
                for (name, label_key), metric in sorted(
                    self._metrics.items(), key=lambda kv: kv[0]
                )
            ]

    def snapshot(self) -> dict:
        """Full registry dump: {kind: {series-name: value-or-summary}}."""
        with self._lock:
            items = list(self._metrics.items())
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, label_key), metric in sorted(items, key=lambda kv: kv[0]):
            out[metric.kind + "s"][_series_name(name, label_key)] = metric.snapshot()
        return out

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
