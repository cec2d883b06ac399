"""Rolling-window SLO monitors: burn rates and alerts.

An :class:`SLO` states the objective ("99% of calls complete under the
latency threshold, measured over a rolling window"); an
:class:`SLOMonitor` tracks one function against it using coarse time
buckets (O(window/bucket) memory, no per-call storage). The headline
signal is the **burn rate** — the ratio of the observed bad-call
fraction to the error budget ``1 - objective``: burn 1.0 spends the
budget exactly over the window, burn 14.4 exhausts a 30-day budget in
two days (the classic fast-burn page threshold). Alerts fire when both
the long window and a short recent window burn hot, the standard
multi-window rule that keeps one latency spike from paging.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

#: Burn rate above which the fast/slow window pair alerts (Google SRE
#: workbook's 1h/5m page threshold).
FAST_BURN = 14.4


@dataclass(frozen=True)
class SLO:
    """A latency objective over a rolling window."""

    #: A call slower than this (seconds) — or erroring — is "bad".
    latency_threshold: float = 1.0
    #: Target fraction of good calls in the window.
    objective: float = 0.99
    #: Rolling window length, seconds.
    window: float = 300.0
    #: Short window for the multi-window alert rule, seconds.
    short_window: float = 30.0

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


class SLOMonitor:
    """One function's compliance against an :class:`SLO`."""

    def __init__(self, slo: SLO, clock=time.monotonic, buckets: int = 30):
        self.slo = slo
        self.clock = clock
        self.bucket_s = slo.window / buckets
        self._lock = threading.Lock()
        #: bucket start time -> [good, bad]; pruned past the window.
        self._buckets: dict[float, list] = {}
        self.total_good = 0
        self.total_bad = 0

    # ------------------------------------------------------------------
    def observe(self, duration: float, error: bool = False) -> None:
        now = self.clock()
        bad = error or duration > self.slo.latency_threshold
        start = now - (now % self.bucket_s)
        with self._lock:
            bucket = self._buckets.get(start)
            if bucket is None:
                bucket = self._buckets[start] = [0, 0]
                self._prune(now)
            bucket[1 if bad else 0] += 1
            if bad:
                self.total_bad += 1
            else:
                self.total_good += 1

    def _prune(self, now: float) -> None:
        horizon = now - self.slo.window - self.bucket_s
        for start in [s for s in self._buckets if s < horizon]:
            del self._buckets[start]

    # ------------------------------------------------------------------
    def _window_counts(self, window: float, now: float) -> tuple[int, int]:
        horizon = now - window - 1e-9
        good = bad = 0
        for start, (g, b) in self._buckets.items():
            if start + self.bucket_s > horizon:
                good += g
                bad += b
        return good, bad

    def burn_rate(self, window: float | None = None) -> float:
        """Observed bad fraction over the window, relative to the error
        budget: 1.0 = spending exactly the budget, >1 = burning hot."""
        now = self.clock()
        with self._lock:
            self._prune(now)
            good, bad = self._window_counts(window or self.slo.window, now)
        total = good + bad
        if not total:
            return 0.0
        return (bad / total) / self.slo.error_budget

    def compliance(self) -> float:
        """Good-call fraction over the rolling window (1.0 when idle)."""
        now = self.clock()
        with self._lock:
            self._prune(now)
            good, bad = self._window_counts(self.slo.window, now)
        total = good + bad
        return good / total if total else 1.0

    def alerting(self, threshold: float = FAST_BURN) -> bool:
        """The multi-window rule: both the full window and the short
        recent window must burn above ``threshold`` to page."""
        return (
            self.burn_rate() >= threshold
            and self.burn_rate(self.slo.short_window) >= threshold
        )

    def status(self) -> dict:
        return {
            "objective": self.slo.objective,
            "threshold_s": self.slo.latency_threshold,
            "window_s": self.slo.window,
            "compliance": self.compliance(),
            "burn_rate": self.burn_rate(),
            "burn_rate_short": self.burn_rate(self.slo.short_window),
            "alerting": self.alerting(),
            "good": self.total_good,
            "bad": self.total_bad,
        }


class SLORegistry:
    """Per-function monitors, fed from finished ``call.invoke`` spans."""

    def __init__(self, default: SLO | None = None, clock=time.monotonic):
        self.default = default or SLO()
        self.clock = clock
        self._lock = threading.Lock()
        self._monitors: dict[str, SLOMonitor] = {}
        self._slos: dict[str, SLO] = {}

    def set_slo(self, function: str, slo: SLO) -> None:
        """Override the default objective for one function."""
        with self._lock:
            self._slos[function] = slo
            self._monitors.pop(function, None)

    def monitor(self, function: str) -> SLOMonitor:
        with self._lock:
            monitor = self._monitors.get(function)
            if monitor is None:
                slo = self._slos.get(function, self.default)
                monitor = self._monitors[function] = SLOMonitor(
                    slo, clock=self.clock
                )
            return monitor

    def observe(self, function: str, duration: float, error: bool = False) -> None:
        self.monitor(function).observe(duration, error)

    def functions(self) -> list[str]:
        with self._lock:
            return sorted(self._monitors)

    def report(self) -> dict[str, dict]:
        return {fn: self.monitor(fn).status() for fn in self.functions()}

