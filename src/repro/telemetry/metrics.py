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


def _series_name(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


def share_lock(lock: threading.Lock, *metrics) -> threading.Lock:
    """Guard ``metrics`` with ``lock`` and return it: an owner that updates
    several at once takes it once and adds to each ``_value`` under it,
    and their own ``inc``/``set``/``reset`` serialise with that."""
    for metric in metrics:
        metric._lock = lock
    return lock


class _Scalar:
    """A number behind a lock: what counters and gauges share."""

    __slots__ = ("_lock", "_value")
    zero: int | float = 0

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = self.zero

    @property
    def value(self) -> int | float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = self.zero

    def snapshot(self):
        return self._value


class Counter(_Scalar):
    """Monotonic (reset-able) count."""

    __slots__ = ()
    kind = "counter"

    def inc(self, n: int | float = 1) -> None:
        # Acquired by hand: half the cost of ``with`` on a per-call path.
        self._lock.acquire()
        self._value += n
        self._lock.release()


class Gauge(_Scalar):
    """Last-set value (pool sizes, capacities, memory footprints)."""

    __slots__ = ()
    kind = "gauge"
    zero = 0.0

    def set(self, value: float) -> None:
        self._lock.acquire()
        self._value = value
        self._lock.release()

    def add(self, delta: float) -> None:
        self._lock.acquire()
        self._value += delta
        self._lock.release()


class MetricsRegistry:
    """Thread-safe get-or-create registry of labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
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
        bias (see :mod:`repro.telemetry.streaming`)."""
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
