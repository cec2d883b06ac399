"""Streaming log-bucketed histograms: accuracy, memory, and round-trips.

The headline contract (from the observability issue): percentiles within
5% relative error of the exact nearest-rank answer on a million
observations, at O(1) memory. The hypothesis test pins the error bound
against the exact rank neighbourhood for arbitrary positive data.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import MetricsRegistry, StreamingHistogram
from repro.telemetry.stats import percentile as exact_percentile


def test_empty_histogram_matches_stats_convention():
    hist = StreamingHistogram()
    assert hist.count == 0
    assert hist.percentile(50) == 0.0 == exact_percentile([], 50)
    assert hist.mean() == 0.0
    assert hist.min == 0.0 and hist.max == 0.0


def test_single_value_is_reported_exactly():
    hist = StreamingHistogram()
    hist.observe(3.25)
    # Clamping to [min, max] collapses a one-value distribution onto it.
    for pct in (0, 50, 99, 100):
        assert hist.percentile(pct) == 3.25
    assert hist.sum == 3.25 and hist.count == 1


def test_zero_and_negative_values_are_bucketed():
    hist = StreamingHistogram()
    for v in (-4.0, -4.0, 0.0, 2.0):
        hist.observe(v)
    assert hist.count == 4
    assert hist.percentile(0) == -4.0
    assert hist.percentile(100) == 2.0
    assert hist.percentile(50) in (0.0, -4.0)  # rank 1.5 -> rounds to rank 2
    assert hist.min == -4.0 and hist.max == 2.0


def test_invalid_growth_rejected():
    with pytest.raises(ValueError):
        StreamingHistogram(growth=1.0)


def test_million_observations_within_5pct_at_constant_memory():
    """The acceptance criterion: 10^6 observations, every headline
    percentile within 5% relative error of the exact nearest-rank value,
    with a bucket table that would hold ANY number of observations."""
    rng = random.Random(42)
    hist = StreamingHistogram()
    values = []
    observe = hist.observe
    append = values.append
    for _ in range(1_000_000):
        v = rng.lognormvariate(0.0, 2.0)  # ~4 orders of magnitude spread
        observe(v)
        append(v)
    values.sort()
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        exact = values[round((pct / 100.0) * (len(values) - 1))]
        est = hist.percentile(pct)
        assert abs(est - exact) / exact < 0.05, (pct, est, exact)
    # O(1) memory: bucket count tracks the dynamic range, not the count.
    assert hist.bucket_count() < 500
    assert hist.count == 1_000_000
    assert hist.sum == pytest.approx(sum(values), rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_error_bounded_by_bucket_width(values, pct):
    """For any positive data, the estimate is within sqrt(growth) of the
    exact nearest-rank order statistic's neighbourhood (rounding of the
    fractional rank may land on either neighbour)."""
    hist = StreamingHistogram()
    for v in values:
        hist.observe(v)
    ordered = sorted(values)
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = ordered[math.floor(rank)]
    hi = ordered[math.ceil(rank)]
    est = hist.percentile(pct)
    bound = math.sqrt(hist.growth)
    assert lo / bound <= est <= hi * bound


def test_merge_equals_combined_stream():
    rng = random.Random(7)
    a, b, combined = (
        StreamingHistogram(), StreamingHistogram(), StreamingHistogram()
    )
    for i in range(5000):
        v = rng.expovariate(1.0)
        (a if i % 2 else b).observe(v)
        combined.observe(v)
    a.merge(b)
    assert a.count == combined.count
    assert a.sum == pytest.approx(combined.sum)
    for pct in (50, 95, 99):
        assert a.percentile(pct) == combined.percentile(pct)
    assert a.buckets() == combined.buckets()


def test_merge_growth_mismatch_raises():
    with pytest.raises(ValueError):
        StreamingHistogram(1.08).merge(StreamingHistogram(2.0))


def test_serialisation_round_trip_is_exact():
    rng = random.Random(3)
    hist = StreamingHistogram()
    for _ in range(2000):
        hist.observe(rng.gauss(0.0, 10.0))  # mixed signs + magnitudes
    clone = StreamingHistogram.from_dict(hist.to_dict())
    assert clone.to_dict() == hist.to_dict()
    assert clone.snapshot() == hist.snapshot()
    assert clone.buckets() == hist.buckets()


def test_registry_integration():
    registry = MetricsRegistry()
    hist = registry.histogram("function.latency", function="f")
    assert registry.histogram("function.latency", function="f") is hist
    assert hist.kind == "histogram"
    hist.observe(1.0)
    other = registry.histogram("function.latency", function="g")
    other.observe(2.0)
    other.observe(3.0)
    # aggregate() sums observation counts across label sets.
    assert registry.aggregate("function.latency") == 3
    snapshot = registry.snapshot()
    assert any(
        "function.latency" in name for name in snapshot["histograms"]
    )
