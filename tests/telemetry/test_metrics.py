"""Metrics registry: labelled series, aggregation, and the thin views
the pre-existing ad-hoc counters were refactored onto."""

import sys
import threading

import pytest

from repro.runtime.bus import ExecuteBatch, MessageBus
from repro.state.kv import GlobalStateStore, StateClient, TransferMeter
from repro.telemetry import MetricsRegistry, StreamingHistogram, percentile
from repro.telemetry.stats import percentile as stats_percentile
from repro.telemetry.streaming import DEFAULT_GROWTH


def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = reg.gauge("pool_size")
    g.set(3)
    g.add(2)
    assert g.value == 5
    c.reset()
    assert c.value == 0


def test_racing_increments_sum_exactly():
    """``inc`` / ``add`` take their lock by hand; at a 1 µs switch interval
    eight threads' 10⁴ updates each must still all land, and so must the
    bus's one-lock count of a send racing them."""
    reg = MetricsRegistry()
    counter, gauge = reg.counter("race"), reg.gauge("race.level")
    bus = MessageBus(metrics=reg)
    bus.register("h")
    batch = ExecuteBatch("fn", ((1, 0),))

    def hammer():
        for _ in range(10_000):
            counter.inc()
            gauge.add(1)
            bus.stats._sent.inc()
            bus.stats.record("h", batch)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(old)
    assert counter.value == 80_000
    assert gauge.value == 80_000
    assert bus.stats.sent == 160_000
    assert bus.stats.batched_calls == 80_000


def test_labelled_series_are_independent():
    reg = MetricsRegistry()
    reg.counter("state.bytes_sent", host="host-0").inc(100)
    reg.counter("state.bytes_sent", host="host-1").inc(50)
    assert reg.counter("state.bytes_sent", host="host-0").value == 100
    assert reg.counter("state.bytes_sent", host="host-1").value == 50
    assert reg.aggregate("state.bytes_sent") == 150
    series = reg.series("state.bytes_sent")
    assert set(series) == {
        "state.bytes_sent{host=host-0}",
        "state.bytes_sent{host=host-1}",
    }


def test_get_or_create_returns_same_metric():
    reg = MetricsRegistry()
    assert reg.counter("x", host="a") is reg.counter("x", host="a")
    assert reg.counter("x", host="a") is not reg.counter("x", host="b")


def test_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_histogram_exact_totals_with_bounded_window():
    reg = MetricsRegistry()
    h = reg.histogram("h", host="a")
    assert type(h) is StreamingHistogram
    for i in range(20_000):
        h.observe(float(i % 20))
    # Exact over the full stream...
    assert h.count == 20_000
    assert h.sum == 1000 * sum(range(20))
    assert h.min == 0.0
    assert h.max == 19.0
    # ...in memory bounded by the value range, not the observation count.
    assert h.bucket_count() <= 20
    # Per-label series fold into one distribution.
    other = reg.histogram("h", host="b")
    other.observe(50.0)
    total = StreamingHistogram()
    total.merge(h)
    total.merge(other)
    assert total.count == 20_001 and total.max == 50.0


def test_histogram_percentile_uses_shared_implementation():
    h = MetricsRegistry().histogram("h")
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    for v in values:
        h.observe(v)
    # Within the bucket error of the exact (sample-list) percentile.
    for pct in (0, 25, 50, 75, 100):  # ranks that name one sample each
        exact = stats_percentile(values, pct)
        assert abs(h.percentile(pct) - exact) <= exact * (DEFAULT_GROWTH - 1)
    # One sample-list percentile implementation serves the whole repo:
    # sim.metrics re-exports the telemetry one.
    from repro.sim.metrics import percentile as sim_percentile

    assert sim_percentile is stats_percentile
    assert percentile is stats_percentile


def test_snapshot_structure():
    reg = MetricsRegistry()
    reg.counter("c", host="a").inc(2)
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(0.25)
    snap = reg.snapshot()
    assert snap["counters"] == {"c{host=a}": 2}
    assert snap["gauges"] == {"g": 1.5}
    hist = snap["histograms"]["h"]
    assert hist["count"] == 1 and hist["p50"] == 0.25  # clamped to [min, max]


# ----------------------------------------------------------------------
# Thin views over the registry (the refactored ad-hoc counters)
# ----------------------------------------------------------------------
def test_bus_stats_view_backed_by_registry():
    reg = MetricsRegistry()
    bus = MessageBus(metrics=reg)
    bus.register("host-0")
    bus.send("host-0", ExecuteBatch("f", ((1, 0),), origin="host-0"))
    bus.send("host-0", ExecuteBatch("f", ((2, 0),), origin="host-1", shared=True))
    assert bus.stats.sent == 2
    assert bus.stats.shared == 1
    # The legacy attributes and the registry read the same counters.
    assert reg.counter("bus.messages_sent").value == 2
    assert reg.counter("bus.messages_shared").value == 1


def test_transfer_meter_view_backed_by_registry():
    reg = MetricsRegistry()
    meter = TransferMeter(reg, host="host-0")
    client = StateClient(GlobalStateStore(), meter)
    client.push("k", b"x" * 64)
    client.pull("k")
    assert meter.sent_bytes == 64
    assert meter.received_bytes == 64
    assert meter.round_trips == 2
    assert meter.total_bytes == 128
    assert reg.counter("state.bytes_sent", host="host-0").value == 64
    meter.reset()
    assert meter.round_trips == 0
    assert reg.counter("state.round_trips", host="host-0").value == 0


def test_code_cache_counters_are_registry_backed():
    from repro.minilang import build
    from repro.wasm.codecache import ModuleCodeCache

    cache = ModuleCodeCache()
    module = build("export int main() { return 7; }")
    cache.get_or_compile(module)
    cache.get_or_compile(module)
    assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "seeded": 0}
    assert cache.metrics.counter("codecache.hits").value == 1
