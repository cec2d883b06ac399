"""Units for the chaos plan, event log, and engine decision functions."""

from __future__ import annotations

import threading

import pytest

from repro.chaos import ChaosEngine, ChaosEventLog, ChaosPlan, CrashSpec, StripeOutage
from repro.chaos.bus import ChaosMessageBus
from repro.chaos.engine import _hash01
from repro.runtime.bus import Shutdown
from repro.state.kv import StateUnavailableError


def test_hash01_is_pure_and_uniform_ish():
    assert _hash01(1, "drop", 42) == _hash01(1, "drop", 42)
    assert _hash01(1, "drop", 42) != _hash01(2, "drop", 42)
    assert _hash01(1, "drop", 42) != _hash01(1, "duplicate", 42)
    values = [_hash01(7, "drop", i) for i in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # A 10% rate should select roughly 10% of ids (very loose bound).
    assert 120 < sum(v < 0.10 for v in values) < 280


def test_bus_action_is_a_pure_function_of_call_id():
    plan = ChaosPlan(seed=11, drop_rate=0.2, duplicate_rate=0.2, delay_rate=0.2)
    first = ChaosEngine(plan)
    second = ChaosEngine(plan)
    for call_id in range(1, 200):
        a = first.bus_action(call_id, 0)
        b = second.bus_action(call_id, 0)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b


def test_bus_action_never_faults_retries_or_unmanaged_traffic():
    plan = ChaosPlan(seed=1, drop_rate=1.0)  # would drop everything
    engine = ChaosEngine(plan)
    # attempt >= 1 (a retry) travels cleanly:
    assert engine.bus_action(5, 1) is None
    assert engine.bus_action(5, 3) is None
    # the first dispatch is faulted:
    assert engine.bus_action(5, 0) == ("drop", 0.0)
    # and what is not work at all (Shutdown) passes the chaos bus untouched:
    bus = ChaosMessageBus(engine=engine)
    bus.register("h")
    bus.send("h", Shutdown())
    assert isinstance(bus.receive("h", timeout=1), Shutdown)


def test_canonical_log_excludes_host_and_time_and_sorts():
    log = ChaosEventLog()
    log.append("drop", 2, host="host-1")
    log.append("crash", 1, "phase=mid-guest", host="host-0")
    assert log.canonical_lines() == ["crash call=1 phase=mid-guest", "drop call=2"]
    # Host differences do not change the canonical form.
    other = ChaosEventLog()
    other.append("crash", 1, "phase=mid-guest", host="host-3")
    other.append("drop", 2, host="host-2")
    assert other.digest() == log.digest()


def test_same_plan_same_decisions_same_digest():
    plan = ChaosPlan(
        seed=23,
        drop_rate=0.15,
        duplicate_rate=0.1,
        delay_rate=0.1,
        reorder_rate=0.05,
        stripe_outages=(StripeOutage(3, 10, 5),),
    )
    digests = []
    for _ in range(2):
        engine = ChaosEngine(plan)
        for call_id in range(1, 300):
            engine.bus_action(call_id, 0)
        digests.append(engine.log.digest())
    assert digests[0] == digests[1]


def test_decisions_are_thread_order_independent():
    """Interleaving must not change the canonical log — the property that
    makes chaos runs replayable."""
    plan = ChaosPlan(seed=5, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.2)
    ids = list(range(1, 400))

    def run(order) -> str:
        engine = ChaosEngine(plan)
        threads = []
        for i in range(4):
            part = order[i::4]  # covers every id, regardless of length
            threads.append(
                threading.Thread(
                    target=lambda p=part: [
                        engine.bus_action(c, 0)
                        for c in p
                    ]
                )
            )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return engine.log.digest()

    assert run(ids) == run(list(reversed(ids)))


def test_stripe_outage_window_is_op_counted():
    plan = ChaosPlan(seed=1, stripe_outages=(StripeOutage(2, 3, 2),))
    engine = ChaosEngine(plan)
    # ops 0..2 pass, 3..4 raise, 5+ pass again
    for _ in range(3):
        engine.check_stripe(2)
    for _ in range(2):
        with pytest.raises(StateUnavailableError):
            engine.check_stripe(2)
    engine.check_stripe(2)
    # other stripes are never affected (and not even counted)
    for _ in range(10):
        engine.check_stripe(1)
    assert engine.metrics.counter("state.unavailable").value == 2
    # armed windows appear in the canonical log up front
    assert any("outage-armed" in line for line in engine.log.canonical_lines())


def test_crash_spec_fires_exactly_once():
    class FakeInstance:
        host = "host-9"
        killed = 0

        def kill(self):
            self.killed += 1

    from repro.runtime.instance import HostCrashed

    plan = ChaosPlan(seed=1, crashes=(CrashSpec(7, "mid-guest"),))
    engine = ChaosEngine(plan)
    inst = FakeInstance()
    engine.on_phase(inst, "pre-dispatch", 7, 0)  # wrong phase: no-op
    engine.on_phase(inst, "mid-guest", 8, 0)  # wrong call: no-op
    with pytest.raises(HostCrashed):
        engine.on_phase(inst, "mid-guest", 7, 0)
    engine.on_phase(inst, "mid-guest", 7, 1)  # already fired: no-op
    assert inst.killed == 1
    assert engine.crashes_fired() == 1
    assert engine.log.canonical_lines().count("crash call=7 phase=mid-guest") == 1


def test_delayed_delivery_to_a_deregistered_host_is_dropped_quietly():
    """A delayed fault fires on a timer thread; the host deregistering in
    the meantime must not surface there as an uncaught ``KeyError``."""
    import time

    from repro.runtime.bus import ExecuteBatch

    engine = ChaosEngine(ChaosPlan(seed=3, delay_rate=1.0, max_delay_ms=20.0))
    bus = ChaosMessageBus(engine=engine)
    bus.register("h")
    uncaught = []
    previous, threading.excepthook = threading.excepthook, uncaught.append
    try:
        bus.send("h", ExecuteBatch("f", ((1, 0), (2, 0))))
        assert bus.pending("h") == 0  # both items are in flight on timers
        bus.deregister("h")
        time.sleep(0.1)
    finally:
        threading.excepthook = previous
    assert uncaught == []
    assert [e.kind for e in engine.log.events()] == ["delay", "delay"]
