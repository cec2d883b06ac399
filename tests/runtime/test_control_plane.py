"""The control plane sleeps until something is due (DESIGN.md §6, §11).

The invocation monitor's thread is the cluster's one timer: the recovery
scan, the retries and the autoscaler's tick are entries on its deadline
heap. An idle cluster's timer runs no Python, an autoscaler brings no
thread of its own, and a drain never holds the timer up: it ends once the
calls placed on the host have finished.
"""

import itertools
import sys
import threading
import time

from repro.runtime import FaasmCluster
from repro.runtime.autoscale import Autoscaler, AutoscalePolicy
from repro.state.kv import StateUnavailableError
from tests.conftest import wait_for

def _echo(ctx):
    ctx.write_output(ctx.input())
    return 0


def _blocking(cluster, host):
    """Register ``block``, warm on ``host`` only; returns its gate and the
    event it sets once a call is inside the guest."""
    gate, entered = threading.Event(), threading.Event()

    def block(ctx):
        entered.set()
        gate.wait(10.0)
        return 0

    cluster.register_python("block", block)
    cluster.warm_sets.add("block", host)
    return gate, entered


def test_an_idle_cluster_runs_no_python_on_its_timer_thread():
    """Counted as profile ``call`` events on the ``invocation-monitor``
    thread over one idle second, after some traffic: a 20 ms poll would
    make 50 waits and 50 scans of Python calls."""
    events, on = itertools.count(), [False]

    def profile(frame, event, arg):
        if on[0] and event == "call" and (
            threading.current_thread().name == "invocation-monitor"
        ):
            next(events)

    # A thread inherits the profiler only if it is set before it starts.
    threading.setprofile(profile)
    try:
        cluster = FaasmCluster(n_hosts=2)
    finally:
        threading.setprofile(None)
    try:
        cluster.register_python("echo", _echo)
        for _ in range(20):
            assert cluster.invoke("echo", b"x") == (0, b"x")
        on[0] = True
        time.sleep(1.0)
        on[0] = False
    finally:
        cluster.shutdown()
    assert next(events) == 0


def test_racing_pushes_each_run_once_and_never_early():
    """Eight threads push entries due within 50 ms at a 1 µs switch
    interval: a push that became the earliest but did not wake the timer
    would leave its entry late, or, if it was the last, never run."""
    cluster = FaasmCluster(n_hosts=1)
    ran: list = []
    done = threading.Event()
    total = 8 * 200

    def entry(when):
        ran.append(time.monotonic() - when)
        if len(ran) == total:
            done.set()

    def pusher(seed):
        base = time.monotonic()
        for i in range(200):
            when = base + ((seed * 7919 + i * 104729) % 50) / 1000
            cluster.timer.call_at(when, lambda when=when: entry(when))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pusher, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    try:
        assert done.wait(10.0), f"{len(ran)} of {total} entries ran"
        assert len(ran) == total and min(ran) >= 0.0
    finally:
        cluster.shutdown()


def test_an_autoscaler_adds_no_thread():
    cluster = FaasmCluster(n_hosts=2)
    try:
        before = threading.active_count()
        scaler = Autoscaler(cluster, AutoscalePolicy(min_hosts=2, interval=0.01))
        ticks = itertools.count()
        tick = scaler.tick
        scaler.tick = lambda now=None: (next(ticks), tick(now))[1]
        scaler.start()
        wait_for(lambda: next(ticks) >= 10)
        assert threading.active_count() == before
    finally:
        cluster.shutdown()


def test_a_host_death_asks_for_a_scan_at_once():
    """Under the default 15 s attempt timeout, a call running on a host that
    dies is re-queued by the scan the death asks for, not at the next
    deadline."""
    cluster = FaasmCluster(n_hosts=2)
    gate, entered = _blocking(cluster, "host-1")
    try:
        record = cluster.calls.get(cluster.dispatch("block"))
        assert entered.wait(5.0) and record.host == "host-1"
        cluster.instance_for("host-1").kill()
        gate.set()
        assert cluster.calls.wait(record.call_id, 5.0) == 0
        assert record.retries == 1 and record.host == "host-0"
    finally:
        gate.set()
        cluster.shutdown()


def test_a_message_a_dead_host_drops_asks_for_a_scan():
    """The target dies between placement and send, after the scan its
    death asked for: the call carries the new epoch on a dead host, and
    the dead host's worker, dropping the message, asks for the scan that
    re-queues it, not the default 15 s attempt timeout."""
    cluster = FaasmCluster(n_hosts=2)
    cluster.register_python("echo", _echo)
    cluster.warm_sets.add("echo", "host-1")
    target = cluster.instance_for("host-1")
    new_attempts = cluster.calls.new_attempts

    def dying_first(specs):
        if target.alive:
            target.kill()
            time.sleep(0.2)  # the scan the death asked for runs now
        return new_attempts(specs)

    cluster.calls.new_attempts = dying_first
    try:
        record = cluster.calls.get(cluster.dispatch("echo", b"x"))
        assert cluster.calls.wait(record.call_id, 2.0) == 0
        assert record.retries == 1 and record.host == "host-0"
        assert cluster.calls.output(record.call_id) == b"x"
    finally:
        cluster.shutdown()


def test_retire_host_returns_once_the_call_in_flight_completed_there():
    cluster = FaasmCluster(n_hosts=2)
    gate, entered = _blocking(cluster, "host-1")
    try:
        call_id = cluster.dispatch("block")
        assert entered.wait(5.0)
        record = cluster.calls.get(call_id)
        assert record.host == "host-1"
        returned: list = []
        retire = threading.Thread(target=lambda: returned.append(
            (cluster.retire_host("host-1", timeout=10.0), record.done.is_set())
        ))
        retire.start()
        time.sleep(0.2)
        assert not returned and cluster.instance_for("host-1").alive
        gate.set()
        retire.join(5.0)  # well inside the 10 s fallback
        assert not retire.is_alive() and returned == [(True, True)]
        assert not cluster.instance_for("host-1").alive
        assert cluster.calls.wait(call_id, 1.0) == 0
        assert record.retries == 0 and record.host == "host-1"
    finally:
        gate.set()
        cluster.shutdown()


def test_a_parked_retry_fires_during_an_autoscaler_drain(monkeypatch):
    """The autoscaler begins retiring host-1 while a call still runs there
    (hidden from its idle test, as a call that lands between the test and
    the shrink would be). A call parked meanwhile is retried, and completes,
    before that drain ends; a later tick then kills the host, once the call
    it waited for completed in place. The retry fires at its ``retry_at``
    because the executor that parked the call asked for a scan then."""
    cluster = FaasmCluster(n_hosts=2)  # a 15 s attempt timeout
    gate, entered = _blocking(cluster, "host-1")
    victim = cluster.instance_for("host-1")
    attempts = itertools.count()

    def flaky(ctx):
        if next(attempts) == 0:
            raise StateUnavailableError("injected outage")
        return 0

    cluster.register_python("flaky", flaky)
    try:
        blocked = cluster.calls.get(cluster.dispatch("block"))
        assert entered.wait(5.0) and blocked.host == "host-1"
        monkeypatch.setattr(victim, "executing", lambda: 0)
        scaler = Autoscaler(cluster, AutoscalePolicy(
            min_hosts=1, interval=0.01, idle_grace_s=0.05, retire_timeout_s=30.0,
        ))
        scaler.start()
        wait_for(lambda: victim.draining)
        parked = cluster.calls.get(cluster.dispatch("flaky"))
        assert cluster.calls.wait(parked.call_id, 5.0) == 0
        assert parked.retries == 1 and parked.host == "host-0"
        assert victim.alive and victim.draining  # the drain is still on
        gate.set()
        wait_for(lambda: not victim.alive)
        assert cluster.calls.wait(blocked.call_id, 5.0) == 0
        assert blocked.retries == 0
        assert [e["action"] for e in scaler.events] == ["down"]
    finally:
        gate.set()
        cluster.shutdown()
