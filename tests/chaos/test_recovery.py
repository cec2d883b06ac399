"""The invocation plane surviving injected faults, one fault at a time.

Each test arms exactly one fault through a :class:`ChaosPlan` and checks
the specific recovery mechanism that fault exercises: monitor timeouts for
drops, the attempt-claim protocol for duplicates, liveness epochs and
warm-set eviction for crashes, the failure chain for exhausted budgets.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro.chaos import ChaosPlan, CrashSpec, StripeOutage
from repro.runtime import (
    CallStatus,
    DrainTimeout,
    FaasmCluster,
    FaasmRuntimeInstance,
    RetryPolicy,
)
from repro.runtime.autoscale import Autoscaler, AutoscalePolicy
from repro.state.kv import StateUnavailableError
from tests.conftest import wait_for

#: Fast-converging policy for single-fault tests.
FAST = RetryPolicy(
    max_attempts=4, attempt_timeout=0.25, base_delay=0.01, max_delay=0.05
)

#: Backoff and timeout long enough that nothing is retried unless a test
#: scans for it.
PATIENT = RetryPolicy(
    max_attempts=4, attempt_timeout=60.0, base_delay=60.0, max_delay=60.0
)

HELLO_SRC = """
extern void write_call_output(int buf, int len);
export int main() {
    int[] msg = new int[2];
    storeb(ptr(msg), 104); storeb(ptr(msg) + 1, 105);
    write_call_output(ptr(msg), 2);
    return 0;
}
"""


def _wait(cluster, call_id, timeout=10.0) -> int:
    return cluster.calls.wait(call_id, timeout)


def _echo(ctx):
    ctx.write_output(b"echo:" + ctx.input())
    return 0


@pytest.fixture
def make_cluster():
    clusters = []

    def factory(**kwargs):
        kwargs.setdefault("retry_policy", FAST)
        cluster = FaasmCluster(**kwargs)
        clusters.append(cluster)
        return cluster

    yield factory
    for cluster in clusters:
        cluster.shutdown()


def test_dropped_message_is_retried_to_completion(make_cluster):
    plan = ChaosPlan(seed=1, drop_rate=1.0)  # every first dispatch is lost
    cluster = make_cluster(n_hosts=2, chaos=plan)
    cluster.register_python("echo", _echo)
    call_id = cluster.dispatch("echo", b"x")
    assert _wait(cluster, call_id) == 0
    record = cluster.calls.get(call_id)
    assert record.status is CallStatus.SUCCEEDED
    assert record.retries >= 1
    assert "timed out" in record.failure_chain[0]
    assert cluster.telemetry.metrics.counter("bus.dropped").value == 1
    assert cluster.telemetry.metrics.counter("call.retries").value >= 1


def test_duplicate_delivery_executes_exactly_once(make_cluster):
    plan = ChaosPlan(seed=1, duplicate_rate=1.0)
    cluster = make_cluster(n_hosts=2, chaos=plan)
    counted = []

    def counting(ctx):
        counted.append(ctx.input())
        ctx.write_output(b"ok")
        return 0

    cluster.register_python("count", counting)
    ids = [cluster.dispatch("count", str(i).encode()) for i in range(20)]
    for call_id in ids:
        assert _wait(cluster, call_id) == 0
    # Both copies arrived, but begin_attempt let only one run per call.
    time.sleep(0.1)  # give rejected duplicates time to be (not) executed
    assert len(counted) == 20
    assert cluster.telemetry.metrics.counter("bus.duplicated").value == 20


def test_delayed_and_reordered_messages_still_complete(make_cluster):
    plan = ChaosPlan(seed=2, delay_rate=0.5, reorder_rate=0.5, max_delay_ms=20.0)
    cluster = make_cluster(n_hosts=2, chaos=plan)
    cluster.register_python("echo", _echo)
    ids = [cluster.dispatch("echo", str(i).encode()) for i in range(30)]
    for call_id in ids:
        assert _wait(cluster, call_id) == 0
    metrics = cluster.telemetry.metrics
    assert metrics.counter("bus.delayed").value + metrics.counter(
        "bus.reordered"
    ).value > 0


@pytest.mark.parametrize("phase", ["pre-dispatch", "mid-guest", "pre-complete"])
def test_host_crash_at_each_phase_recovers_on_another_host(make_cluster, phase):
    plan = ChaosPlan(seed=3, crashes=(CrashSpec(1, phase),))
    cluster = make_cluster(n_hosts=3, chaos=plan)
    cluster.register_python("echo", _echo)
    call_id = cluster.dispatch("echo", b"v")
    assert _wait(cluster, call_id) == 0
    record = cluster.calls.get(call_id)
    assert record.status is CallStatus.SUCCEEDED
    assert record.retries >= 1
    assert cluster.chaos.crashes_fired() == 1
    # Exactly one host died and was evicted from the warm sets.
    dead = [i for i in cluster.instances if not i.alive]
    assert len(dead) == 1
    assert cluster.telemetry.metrics.counter("host.evicted").value == 1
    for function in cluster.warm_sets.functions():
        assert dead[0].host not in cluster.warm_sets.warm_hosts(function)
    # A crashed host's epoch advanced: its old attempts are detectably stale.
    assert dead[0].epoch == 1


def test_crashed_host_restart_rejoins_the_cluster(make_cluster):
    plan = ChaosPlan(seed=4, crashes=(CrashSpec(1, "mid-guest"),))
    cluster = make_cluster(n_hosts=2, chaos=plan)
    cluster.register_python("echo", _echo)
    assert _wait(cluster, cluster.dispatch("echo", b"a")) == 0
    dead = next(i for i in cluster.instances if not i.alive)
    dead.restart()
    assert dead.alive
    assert dead.warm_functions() == []  # warm pools died with the old life
    # The restarted host serves traffic again (drive a call through it).
    for i in range(8):
        assert _wait(cluster, cluster.dispatch("echo", str(i).encode())) == 0


def test_retry_budget_exhaustion_is_terminal_call_failed(make_cluster):
    cluster = make_cluster(n_hosts=2)

    def always_unavailable(ctx):
        raise StateUnavailableError("stripe 0 unavailable (injected)")

    cluster.register_python("doomed", always_unavailable)
    call_id = cluster.dispatch("doomed")
    assert _wait(cluster, call_id, timeout=15.0) == 1
    record = cluster.calls.get(call_id)
    assert record.status is CallStatus.CALL_FAILED
    assert record.retries + 1 == FAST.max_attempts
    assert len(record.failure_chain) == FAST.max_attempts
    assert all("state unavailable" in r for r in record.failure_chain)
    assert cluster.calls.output(call_id).startswith(b"CallFailed: ")
    assert cluster.telemetry.metrics.counter("call.failed").value == 1
    # The terminal state is final: late completions are rejected.
    assert not cluster.calls.complete_attempt(call_id, 0, 0, b"zombie")


def test_stripe_outage_rides_out_inside_the_state_client(make_cluster):
    # A short window: StateClient's in-place retries absorb it without
    # even surfacing to the attempt level.
    plan = ChaosPlan(
        seed=5,
        stripe_outages=tuple(StripeOutage(s, 2, 3) for s in range(16)),
    )
    cluster = make_cluster(n_hosts=2, chaos=plan)

    def stateful(ctx):
        idx = ctx.input().decode()
        ctx.state.set_state(f"k/{idx}", b"v" + idx.encode())
        ctx.state.push_state(f"k/{idx}")
        return 0

    cluster.register_python("stateful", stateful)
    ids = [cluster.dispatch("stateful", str(i).encode()) for i in range(25)]
    for call_id in ids:
        assert _wait(cluster, call_id) == 0
    assert cluster.telemetry.metrics.counter("state.unavailable").value > 0


def test_idempotency_key_dedupes_dispatch(make_cluster):
    cluster = make_cluster(n_hosts=2)
    cluster.register_python("echo", _echo)
    first = cluster.dispatch("echo", b"x", idempotency_key="job-1")
    second = cluster.dispatch("echo", b"ignored", idempotency_key="job-1")
    assert first == second
    assert _wait(cluster, first) == 0
    assert cluster.calls.output(first) == b"echo:x"
    other = cluster.dispatch("echo", b"y", idempotency_key="job-2")
    assert other != first


def test_idempotency_key_dedupes_concurrent_dispatch(make_cluster):
    """Racing dispatches of one key agree on one record and the guest runs
    once: the key is reserved in the same registry hold that looks it up."""
    cluster = make_cluster(n_hosts=2)
    executions: Counter = Counter()
    counting = threading.Lock()

    def count(ctx):
        with counting:
            executions[ctx.input()] += 1
        return 0

    cluster.register_python("count", count)
    n_threads, trials = 8, 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(trials):
            key = f"job-{trial}"
            barrier = threading.Barrier(n_threads)
            ids: list[int] = []

            def racer():
                barrier.wait(timeout=10.0)
                ids.append(
                    cluster.dispatch("count", key.encode(), idempotency_key=key)
                )

            threads = [threading.Thread(target=racer) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert len(ids) == n_threads and len(set(ids)) == 1, (trial, ids)
    finally:
        sys.setswitchinterval(interval)
    cluster.drain(timeout=10.0)
    assert len(cluster.calls.all_records()) == trials
    assert executions == {f"job-{t}".encode(): 1 for t in range(trials)}


def test_drain_reports_stragglers(make_cluster):
    cluster = make_cluster(n_hosts=1)
    cluster.register_python("sleepy", lambda ctx: time.sleep(1.0) or 0)
    call_id = cluster.dispatch("sleepy")
    with pytest.raises(DrainTimeout) as excinfo:
        cluster.drain(timeout=0.2)
    assert excinfo.value.stragglers == [call_id]
    assert str(call_id) in str(excinfo.value)
    # Non-raising mode returns them instead.
    assert cluster.drain(timeout=0.05, raise_on_stragglers=False) == [call_id]


def test_zombie_cannot_relabel_a_parked_call(make_cluster, monkeypatch):
    """A host dies while its executor is cold-starting a call and the
    monitor parks the call. The zombie executor, released afterwards, must
    leave the record parked — not RUNNING on the dead host — and the retry
    then completes the call once, on a live host."""
    cluster = make_cluster(n_hosts=2, retry_policy=PATIENT)
    cluster.timer.stop()  # every scan below is driven by hand
    cluster.upload("hello", HELLO_SRC)
    entered, resume, finished = (threading.Event() for _ in range(3))
    stalled: list = []
    acquire = FaasmRuntimeInstance._acquire_faaslet
    release = FaasmRuntimeInstance._release_faaslet

    def stalling_acquire(self, definition):
        if not stalled:
            stalled.append(self)
            entered.set()
            resume.wait(10.0)
        return acquire(self, definition)

    def noting_release(self, function, faaslet):
        release(self, function, faaslet)
        if self is stalled[0]:
            finished.set()

    monkeypatch.setattr(FaasmRuntimeInstance, "_acquire_faaslet", stalling_acquire)
    monkeypatch.setattr(FaasmRuntimeInstance, "_release_faaslet", noting_release)
    call_id = cluster.dispatch("hello")
    assert entered.wait(10.0)
    (zombie,) = stalled
    zombie.kill()
    cluster.monitor.scan()  # the host died: the attempt is written off
    resume.set()
    assert finished.wait(10.0)
    record = cluster.calls.get(call_id)
    assert record.status is not CallStatus.RUNNING
    assert record.status is CallStatus.PARKED
    assert not record.done.is_set()
    cluster.monitor.scan()  # host death is re-queued without backoff
    assert _wait(cluster, call_id) == 0
    assert cluster.calls.output(call_id) == b"hi"
    assert record.retries == 1
    assert record.host != zombie.host


def test_timer_entry_error_is_counted_and_survived(make_cluster):
    """The cluster's one timer thread survives a pushed callback that
    raises, counting it once: the next due entry still runs."""
    cluster = make_cluster(n_hosts=1)
    timer = cluster.timer
    swallowed = cluster.telemetry.metrics.counter(
        "errors.swallowed", site="monitor.timer"
    )
    ran = threading.Event()

    def failing():
        raise RuntimeError("injected timer failure")

    now = time.monotonic()
    timer.call_at(now, failing)
    timer.call_at(now + 0.01, ran.set)
    assert ran.wait(10.0)
    assert swallowed.value == 1


def test_monitor_scan_error_is_counted_and_survived(make_cluster, monkeypatch):
    """A scan that raises is counted once on the timer and still re-arms."""
    cluster = make_cluster(n_hosts=1)
    swallowed = cluster.telemetry.metrics.counter(
        "errors.swallowed", site="monitor.timer"
    )
    scans: list = []
    open_calls = cluster.calls.open_calls

    def failing_once():
        scans.append(time.monotonic())
        if len(scans) == 1:
            raise RuntimeError("injected scan failure")
        return open_calls()

    monkeypatch.setattr(cluster.calls, "open_calls", failing_once)
    cluster.monitor.request_scan(time.monotonic())
    wait_for(lambda: len(scans) >= 2)  # re-armed by the failed scan
    assert swallowed.value == 1


def test_autoscaler_tick_error_is_counted_and_survived(make_cluster, monkeypatch):
    """A tick that raises is counted once on the timer; the autoscaler
    keeps ticking."""
    cluster = make_cluster(n_hosts=1)
    swallowed = cluster.telemetry.metrics.counter(
        "errors.swallowed", site="monitor.timer"
    )
    scaler = Autoscaler(cluster, AutoscalePolicy(interval=0.01))
    ticks: list = []
    tick = scaler.tick

    def failing_once(now=None):
        ticks.append(now)
        if len(ticks) == 1:
            raise RuntimeError("injected tick failure")
        return tick(now)

    monkeypatch.setattr(scaler, "tick", failing_once)
    scaler.start()
    wait_for(lambda: len(ticks) >= 3)
    assert swallowed.value == 1
