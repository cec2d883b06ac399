"""Chaos fault causes surface on retry spans."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosPlan
from repro.runtime import FaasmCluster, RetryPolicy
from repro.telemetry import Telemetry

FAST = RetryPolicy(
    max_attempts=4, attempt_timeout=0.25, base_delay=0.01, max_delay=0.05
)


@pytest.fixture
def dropped_cluster():
    plan = ChaosPlan(seed=1, drop_rate=1.0)  # every first dispatch is lost
    cluster = FaasmCluster(
        n_hosts=2, chaos=plan, retry_policy=FAST,
        telemetry=Telemetry(enabled=True),
    )
    cluster.register_python(
        "echo", lambda ctx: ctx.write_output(b"echo:" + ctx.input())
    )
    yield cluster
    cluster.shutdown()


def test_retry_span_carries_fault_cause_and_attempt(dropped_cluster):
    cluster = dropped_cluster
    call_id = cluster.dispatch("echo", b"x")
    assert cluster.calls.wait(call_id, 10.0) == 0
    retries = [s for s in cluster.trace_spans() if s.name == "call.retry"]
    assert retries, "dropped dispatch must produce a retry span"
    for span in retries:
        assert span.attrs["attempt"] >= 1
        assert span.attrs["function"] == "echo"
        # The chaos engine's injected fault is stamped on the span: the
        # trace explains *why* the retry happened, not just that it did.
        assert "drop" in span.attrs["fault"]


def test_engine_reports_faults_per_call(dropped_cluster):
    cluster = dropped_cluster
    call_id = cluster.dispatch("echo", b"y")
    assert cluster.calls.wait(call_id, 10.0) == 0
    faults = cluster.chaos.faults_for(call_id)
    assert "drop" in faults
    # Armed-outage bookkeeping entries never masquerade as call faults.
    assert "outage-armed" not in faults

