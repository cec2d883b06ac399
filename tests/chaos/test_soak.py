"""The seeded chaos soak (ISSUE acceptance): exactly-one terminal state
per call under combined drop + crash + stripe-outage load, and a
byte-identical canonical fault log across same-seed runs."""

from __future__ import annotations

import threading

import pytest

from repro.chaos import build_plan, run_soak

pytestmark = pytest.mark.chaos

SEED = 1729

#: Digest of this seed's canonical log as ``repro chaos --seed 1729 --log``
#: wrote it before the dispatch paths were merged into one: refactors of the
#: invocation plane must not move a single fault.
GOLDEN_DIGEST = "278d25baa220e403438c8d5185e4d63e0671a3cb7875cec81cba476523736fda"


def test_soak_no_call_is_stranded_and_log_replays():
    plan = build_plan(SEED, calls=500, drop_rate=0.10, n_crashes=2, n_outages=1)
    assert len(plan.crashes) == 2
    assert len(plan.stripe_outages) == 1

    first = run_soak(SEED, calls=500, hosts=4, plan=plan)
    # Every accepted call reached exactly one terminal state.
    assert first.ok, f"stranded calls: {first.stranded}"
    assert first.completed + first.guest_failed + first.call_failed == 500
    # The faults actually happened (the soak is not a no-op).
    assert first.crashes_fired == 2
    assert first.retries > 0
    assert any(line.startswith("drop ") for line in first.log_lines)
    assert any(line.startswith("crash ") for line in first.log_lines)
    assert any(line.startswith("outage-armed ") for line in first.log_lines)
    assert first.digest == GOLDEN_DIGEST
    assert first.swallowed == 0

    # Determinism: a second run from the same seed reproduces the fault
    # log byte for byte — through the ingestion plane as well, so both
    # front doors are pinned to the golden digest.
    second = run_soak(SEED, calls=500, hosts=4, plan=plan, ingest=True)
    assert second.ok
    assert second.log_lines == first.log_lines
    assert second.digest == GOLDEN_DIGEST
    assert second.swallowed == 0


def test_soak_starts_no_timer_thread(monkeypatch):
    """Delayed and reordered deliveries are entries on the cluster's one
    timer: the default soak, plain and ingested, starts no
    ``threading.Timer`` and keeps its digest."""
    started = []
    start = threading.Timer.start
    monkeypatch.setattr(
        threading.Timer, "start", lambda timer: (started.append(timer), start(timer))[1]
    )
    for ingest in (False, True):
        report = run_soak(SEED, ingest=ingest)
        assert report.ok, f"stranded calls: {report.stranded}"
        assert report.digest == GOLDEN_DIGEST
        assert report.swallowed == 0
    assert started == []


def test_soak_different_seed_different_faults():
    a = run_soak(7, calls=120, hosts=3)
    b = run_soak(8, calls=120, hosts=3)
    assert a.ok and b.ok
    assert a.digest != b.digest
