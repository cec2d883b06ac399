"""SLO monitors under a fake clock: burn rates and alerts."""

from __future__ import annotations

from repro.telemetry import SLO, SLORegistry
from repro.telemetry.slo import FAST_BURN, SLOMonitor


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _monitor(objective=0.99, window=300.0, short_window=30.0, threshold=1.0):
    clock = FakeClock()
    slo = SLO(
        latency_threshold=threshold, objective=objective,
        window=window, short_window=short_window,
    )
    return SLOMonitor(slo, clock=clock), clock


def test_idle_monitor_is_compliant():
    monitor, _ = _monitor()
    assert monitor.compliance() == 1.0
    assert monitor.burn_rate() == 0.0
    assert not monitor.alerting()


def test_burn_rate_of_exact_budget_is_one():
    import pytest

    monitor, _ = _monitor(objective=0.99)
    for i in range(100):
        monitor.observe(0.1, error=(i == 0))  # 1% bad = the whole budget
    assert monitor.burn_rate() == pytest.approx(1.0)
    assert monitor.compliance() == pytest.approx(0.99)


def test_slow_calls_and_errors_both_count_as_bad():
    monitor, _ = _monitor(threshold=0.5)
    monitor.observe(0.6)               # slow
    monitor.observe(0.1, error=True)   # errored
    monitor.observe(0.1)               # good
    assert monitor.total_bad == 2 and monitor.total_good == 1


def test_window_rolls_off_old_badness():
    monitor, clock = _monitor(window=300.0)
    for _ in range(10):
        monitor.observe(5.0)  # all bad
    assert monitor.burn_rate() > 0
    clock.advance(400.0)  # past the window
    for _ in range(10):
        monitor.observe(0.1)
    assert monitor.compliance() == 1.0
    assert monitor.burn_rate() == 0.0
    # Lifetime totals are not windowed.
    assert monitor.total_bad == 10


def test_multi_window_alert_needs_short_window_hot_too():
    monitor, clock = _monitor(objective=0.99, window=300.0, short_window=30.0)
    # A burst of badness, then a quiet recent window: no page.
    for _ in range(50):
        monitor.observe(5.0)
    assert monitor.burn_rate() >= FAST_BURN
    assert monitor.alerting()  # burst is also inside the short window now
    clock.advance(60.0)
    for _ in range(200):
        monitor.observe(0.1)
    assert not monitor.alerting()  # short window recovered


def test_registry_tracks_per_function_objectives():
    clock = FakeClock()
    registry = SLORegistry(clock=clock)
    registry.set_slo("strict", SLO(latency_threshold=0.01, objective=0.999))
    registry.observe("strict", 0.5)   # bad for strict
    registry.observe("lenient", 0.5)  # fine for the 1s default
    report = registry.report()
    assert set(report) == {"strict", "lenient"}
    assert report["strict"]["bad"] == 1
    assert report["lenient"]["good"] == 1
    assert report["strict"]["objective"] == 0.999

