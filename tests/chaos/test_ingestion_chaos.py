"""Chaos soak through the ingestion plane (ISSUE 10 acceptance).

The batched front door — admission, ``ExecuteBatch`` dispatch, pool
execution — must preserve the chaos plane's two promises unchanged:
every admitted call reaches exactly one terminal state, and a seed's
canonical fault log is byte-identical run to run. Fault decisions are
identity-hashed on the call id, never on batch composition, so batching
(and any racy regrouping of batches) must not shift a single fault.
"""

from __future__ import annotations

import pytest

from repro.chaos import build_plan, run_soak

pytestmark = pytest.mark.chaos

SEED = 2401


def test_ingestion_soak_10k_calls_exactly_once_and_deterministic():
    """The 10⁴-call seeded soak with batched dispatch on: exactly-once,
    and two same-seed runs produce byte-identical fault logs."""
    calls = 10_000
    plan = build_plan(
        SEED, calls=calls, drop_rate=0.02, n_crashes=2, n_outages=1
    )
    first = run_soak(
        SEED, calls=calls, hosts=4, plan=plan, timeout=180.0, ingest=True
    )
    assert first.ok, f"stranded calls: {first.stranded}"
    assert first.swallowed == 0
    assert (
        first.completed + first.guest_failed + first.call_failed == calls
    )
    assert first.crashes_fired == 2
    assert any(line.startswith("drop ") for line in first.log_lines)

    second = run_soak(
        SEED, calls=calls, hosts=4, plan=plan, timeout=180.0, ingest=True
    )
    assert second.ok
    assert second.swallowed == 0
    assert second.log_lines == first.log_lines
    assert second.digest == first.digest


def test_ingestion_soak_matches_per_call_fault_log():
    """Stronger than required: because faults are pure functions of the
    call id, the *same seed* yields the same canonical log whether calls
    enter per-call or batched — the ingestion plane is fault-transparent."""
    plan = build_plan(SEED, calls=300, drop_rate=0.10)
    batched = run_soak(
        SEED, calls=300, hosts=4, plan=plan, timeout=60.0, ingest=True
    )
    per_call = run_soak(
        SEED, calls=300, hosts=4, plan=plan, timeout=60.0, ingest=False
    )
    assert batched.ok and per_call.ok
    assert batched.swallowed == per_call.swallowed == 0
    assert batched.digest == per_call.digest
    assert batched.log_lines == per_call.log_lines
