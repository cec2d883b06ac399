"""OpenMetrics exposition: format, completeness, and the cluster scrape."""

from __future__ import annotations

import re
import threading

from repro.runtime import FaasmCluster
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.openmetrics import render_openmetrics, sanitize_name

#: A sample line: name{labels} value  (labels optional).
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf)$"
)


def _full_registry():
    registry = MetricsRegistry()
    registry.counter("calls.total", host="h0").inc(3)
    registry.counter("calls.total", host="h1").inc(2)
    registry.gauge("pool.size").set(7)
    spans = registry.histogram("span.latency", span="call.invoke")
    for v in (0.1, 0.2, 0.3):
        spans.observe(v)
    latency = registry.histogram("function.latency", function="f")
    for v in (0.01, 0.02, 5.0):
        latency.observe(v)
    return registry


def test_sanitize_name():
    assert sanitize_name("state.bytes_sent") == "state_bytes_sent"
    assert sanitize_name("9lives") == "_9lives"
    assert sanitize_name("a-b c") == "a_b_c"


def test_every_registered_series_is_exposed():
    registry = _full_registry()
    body = render_openmetrics(registry)
    for name, labels, _metric in registry.items():
        base = sanitize_name(name)
        matching = [
            line for line in body.splitlines() if line.startswith(base)
        ]
        assert matching, f"series {name} {labels} missing from exposition"
        for key, value in labels.items():
            assert any(f'{key}="{value}"' in line for line in matching)


def test_exposition_parses_line_by_line():
    body = render_openmetrics(_full_registry())
    lines = body.splitlines()
    assert lines[-1] == "# EOF"
    for line in lines[:-1]:
        if line.startswith("# TYPE"):
            assert re.fullmatch(
                r"# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                r"(counter|gauge|histogram)", line,
            )
        else:
            assert _SAMPLE_RE.match(line), line


def test_counter_and_gauge_conventions():
    body = render_openmetrics(_full_registry())
    assert '# TYPE calls_total counter' in body
    assert 'calls_total_total{host="h0"} 3' in body
    assert "# TYPE pool_size gauge" in body
    assert "pool_size 7" in body


def test_streaming_histogram_buckets_are_cumulative():
    body = render_openmetrics(_full_registry())
    buckets = [
        line for line in body.splitlines()
        if line.startswith("function_latency_bucket")
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
    assert counts == sorted(counts)  # cumulative, monotone
    assert buckets[-1].startswith('function_latency_bucket{function="f",le="+Inf"}')
    assert counts[-1] == 3
    assert 'function_latency_count{function="f"} 3' in body


def test_span_histogram_exposes_le_buckets():
    body = render_openmetrics(_full_registry())
    assert "# TYPE span_latency histogram" in body
    assert 'span_latency_bucket{le="+Inf",span="call.invoke"} 3' in body
    assert 'span_latency_count{span="call.invoke"} 3' in body
    assert "summary" not in body and "quantile=" not in body


def test_cluster_scrape_covers_the_registry():
    cluster = FaasmCluster(n_hosts=1, telemetry=Telemetry(enabled=True))
    try:
        cluster.register_python(
            "noop", lambda ctx: ctx.write_output(b"ok")
        )
        assert cluster.invoke("noop")[0] == 0
        body = cluster.scrape_metrics()
        assert body.endswith("# EOF\n")
        # The scrape covers the real cluster registry, end to end.
        for name, labels, _metric in cluster.telemetry.metrics.items():
            assert sanitize_name(name) in body
        # Repeated scrapes keep working.
        assert cluster.scrape_metrics().endswith("# EOF\n")
    finally:
        cluster.shutdown()


def test_scrape_starts_no_thread_and_no_bus_endpoint():
    cluster = FaasmCluster(n_hosts=2)
    try:
        hosts = sorted(cluster.bus.hosts())
        threads = {t.ident for t in threading.enumerate()}
        body = cluster.scrape_metrics()
        assert body == render_openmetrics(cluster.telemetry.metrics)
        assert {t.ident for t in threading.enumerate()} <= threads
        assert sorted(cluster.bus.hosts()) == hosts == ["host-0", "host-1"]
        assert cluster.bus.total_pending() == 0
    finally:
        cluster.shutdown()
