"""Each host runs its calls on one elastic set of standing workers
(DESIGN.md §11): no thread is born per call, the worker that takes a batch
off the bus runs it, unpooled calls never wait for an occupied worker,
pooled ones run on a bounded number of them, a dead host consumes nothing,
and idle workers above the floor retire.
"""

import threading
import time

import pytest

from repro.runtime import CallStatus, FaasmCluster, RetryPolicy
from repro.runtime import instance as instance_module
from repro.runtime.bus import ExecuteBatch
from repro.runtime.ingest import IngestionConfig
from repro.runtime.instance import WORKER_FLOOR
from tests.conftest import wait_for as _wait_for

FAST = RetryPolicy(
    attempt_timeout=0.1, base_delay=0.01, max_delay=0.05, backlog_grace=0.0
)


def _echo(ctx):
    ctx.write_output(b"ok:" + ctx.input())
    return 0


def _parent(ctx):
    child = ctx.chain("child", ctx.input())
    code = ctx.await_call(child)
    ctx.write_output(b"via:" + ctx.call_output(child))
    return code


def _born(cluster) -> int:
    return sum(i.metrics.workers_born.value for i in cluster.instances)


def _grow_workers(cluster, guests=3):
    """Bring every host's standing set to ``guests + 1`` workers, whatever
    the machine's load: that many guests block at once on each host, and
    the worker that takes the last seat's message must start another
    (invariant (i)). A back-to-back caller alone gets there by luck — its
    next message can find the previous worker between ``_complete`` and
    ``_take`` and nobody asleep, and that birth is legitimate, but it is
    warm-up, not a thread per call."""
    gate, held = threading.Event(), []
    for instance in cluster.instances:
        name = f"hold-{instance.host}"
        cluster.register_python(name, lambda ctx: int(not gate.wait(30)))
        for _ in range(guests):
            held.append(cluster.dispatch(name, b"", origin=instance.host))
    try:
        _wait_for(lambda: all(i.executing() == guests for i in cluster.instances))
    finally:
        gate.set()
    assert [cluster.calls.wait(call_id, 30) for call_id in held] == [0] * len(held)
    assert all(len(i._workers) > guests for i in cluster.instances)


@pytest.fixture
def starts(monkeypatch):
    """Every ``threading.Thread.start`` in the process, by thread name."""
    started, start = [], threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.mark.parametrize("shape", ["python", "wasm", "chained"])
def test_warm_calls_start_no_thread(shape, starts, monkeypatch):
    monkeypatch.setattr(instance_module, "WORKER_IDLE_S", 60.0)  # none retires
    cluster = FaasmCluster(n_hosts=2)
    try:
        if shape == "wasm":
            cluster.upload("fn", "export int main() { return 0; }")
            expected = (0, b"")
        elif shape == "chained":
            cluster.register_python("fn", _parent)
            cluster.register_python("child", _echo)
            cluster.warm_sets.add("fn", "host-0")
            cluster.warm_sets.add("child", "host-1")
            expected = (0, b"via:ok:x")
        else:
            cluster.register_python("fn", _echo)
            expected = (0, b"ok:x")
        for _ in range(3):
            assert cluster.invoke("fn", b"x") == expected
        _grow_workers(cluster)
        del starts[:]
        born = _born(cluster)
        for _ in range(200):
            assert cluster.invoke("fn", b"x") == expected
        assert starts == []
        assert _born(cluster) == born
        if shape == "chained":
            assert cluster.instance_for("host-1").shared_received >= 200
    finally:
        cluster.shutdown()


def test_worker_names_and_gauge():
    cluster = FaasmCluster(n_hosts=1)
    try:
        cluster.register_python("echo", _echo)
        assert cluster.invoke("echo", b"1")[0] == 0
        instance = cluster.instances[0]
        names = sorted(w.name for w in instance._workers)
        assert names == [f"worker-host-0-{n + 1}" for n in range(len(names))]
        gauge = cluster.telemetry.metrics.gauge("instance.workers", host="host-0")
        assert gauge.value == len(names) == _born(cluster)
    finally:
        cluster.shutdown()


def test_depth_three_chain_on_one_small_host():
    """Growth rule: every link of a chain pinned to one capacity-2 host
    blocks in ``await_call``; each callee still gets a worker."""

    def link(callee):
        def fn(ctx):
            child = ctx.chain(callee, ctx.input() + b">")
            code = ctx.await_call(child)
            ctx.write_output(ctx.call_output(child))
            return code
        return fn

    cluster = FaasmCluster(n_hosts=1, capacity=2)
    try:
        cluster.register_python("a", link("b"))
        cluster.register_python("b", link("c"))
        cluster.register_python("c", link("leaf"))
        cluster.register_python("leaf", _echo)
        for _ in range(5):
            assert cluster.invoke("a", b"", timeout=10.0) == (0, b"ok:>>>")
    finally:
        cluster.shutdown()


def test_burst_runs_all_at_once_then_workers_retire(monkeypatch):
    monkeypatch.setattr(instance_module, "WORKER_IDLE_S", 0.05)
    width = 32
    barrier = threading.Barrier(width)

    def meet(ctx):
        barrier.wait(timeout=10.0)  # passes only if all 32 run at once
        return 0

    cluster = FaasmCluster(n_hosts=1)
    try:
        cluster.register_python("echo", _echo)
        cluster.register_python("meet", meet)
        instance = cluster.instances[0]
        assert cluster.invoke("echo", b"")[0] == 0
        _wait_for(lambda: len(instance._workers) == WORKER_FLOOR)
        floor_threads = threading.active_count()
        ids = [cluster.dispatch("meet") for _ in range(width)]
        assert [cluster.calls.wait(i, 15.0) for i in ids] == [0] * width
        assert _born(cluster) >= width
        _wait_for(lambda: len(instance._workers) == WORKER_FLOOR)
        _wait_for(lambda: threading.active_count() <= floor_threads)
        # The floor still serves.
        assert cluster.invoke("echo", b"z") == (0, b"ok:z")
    finally:
        cluster.shutdown()


def test_items_queued_behind_a_kill_run_once_elsewhere():
    gate, entered = threading.Event(), threading.Semaphore(0)
    ran, ran_lock = [], threading.Lock()

    def work(ctx):
        with ran_lock:
            ran.append((ctx.input(), threading.current_thread().name))
        entered.release()
        gate.wait(10.0)
        return 0

    cluster = FaasmCluster(n_hosts=1, capacity=2, retry_policy=FAST)
    try:
        cluster.register_python("work", work)
        plane = cluster.ingestion(IngestionConfig(batch_size=16))
        outcomes = cluster.submit_many("work", [str(i).encode() for i in range(10)])
        ids = [call_id for call_id, _ in outcomes]
        # Pooled work runs on at most max(2, capacity) workers at once:
        # two block in their guests, eight wait behind them.
        assert entered.acquire(timeout=5.0) and entered.acquire(timeout=5.0)
        host0 = cluster.instances[0]
        _wait_for(lambda: host0.pool_backlog() == 8)
        time.sleep(0.05)
        assert host0.pool_backlog() == 8 and host0.executing() == 2
        cluster.add_host()
        host0.kill()
        gate.set()
        plane.drain(timeout=30.0)
        for call_id in ids:
            assert cluster.calls.get(call_id).status is CallStatus.SUCCEEDED
        on_dead = {data for data, name in ran if name.startswith("worker-host-0-")}
        assert len(on_dead) == 2
        for data in {str(i).encode() for i in range(10)} - on_dead:
            runs = [name for d, name in ran if d == data]
            assert len(runs) == 1 and runs[0].startswith("worker-host-1-"), runs
        assert host0.pool_backlog() == 0
    finally:
        gate.set()
        cluster.shutdown()


def test_shutdown_joins_every_worker():
    cluster = FaasmCluster(n_hosts=2)
    cluster.register_python("fn", _parent)
    cluster.register_python("child", _echo)
    ids = [cluster.dispatch("fn", b"x") for _ in range(12)]
    assert [cluster.calls.wait(i, 10.0) for i in ids] == [0] * 12
    workers = [w for i in cluster.instances for w in i._workers]
    assert len(workers) >= 2 * WORKER_FLOOR
    cluster.shutdown()
    assert not any(w.is_alive() for w in workers)
    assert all(i._workers == [] for i in cluster.instances)


def test_duplicated_batch_delivery_executes_once():
    executions = []
    cluster = FaasmCluster(n_hosts=1)
    try:
        cluster.register_python(
            "count", lambda ctx: executions.append(ctx.input()) or 0
        )
        send = cluster.bus.send

        def twice(host, message):
            send(host, message)
            if isinstance(message, ExecuteBatch):
                send(host, message)

        cluster.bus.send = twice
        ids = [cluster.dispatch("count", str(i).encode()) for i in range(20)]
        cluster.drain(timeout=10.0)
        _wait_for(lambda: cluster.bus.pending("host-0") == 0)
        time.sleep(0.05)  # let the second copies be (not) executed
        assert sorted(executions) == sorted(str(i).encode() for i in range(20))
        assert all(cluster.calls.get(i).retries == 0 for i in ids)
    finally:
        cluster.shutdown()


def test_executing_count_belongs_to_a_life():
    """A guest that outlives ``kill()`` + ``restart()`` must not decrement
    the new life's count (it read -1, ``free_capacity()`` 9 of 8, and
    ``retire_host`` span its whole timeout)."""
    gate, entered = threading.Event(), threading.Event()

    def block(ctx):
        entered.set()
        gate.wait(10.0)
        return 0

    cluster = FaasmCluster(n_hosts=2, retry_policy=FAST)
    try:
        cluster.register_python("block", block)
        cluster.warm_sets.add("block", "host-0")
        host0 = cluster.instance_for("host-0")
        call_id = cluster.dispatch("block")
        assert entered.wait(5.0) and host0.executing() == 1
        host0.kill()
        host0.restart()
        gate.set()
        assert cluster.calls.wait(call_id, 10.0) == 0
        time.sleep(0.2)  # the zombie has left execute() by now
        assert host0.executing() == 0
        assert host0.free_capacity() == host0.capacity
        started = time.monotonic()
        assert cluster.retire_host("host-0", timeout=10.0)
        assert time.monotonic() - started < 2.0
    finally:
        gate.set()
        cluster.shutdown()


def test_worker_bookkeeping_survives_a_storm():
    """More clients than cores, a microsecond switch interval, pooled and
    unpooled work and chains at once: every call runs exactly once and the
    set's counters come back to rest (a lost update to ``_idle``,
    ``_receiving`` or ``_pooled`` would strand one of them)."""
    import sys

    executions, counting = {}, threading.Lock()

    def count(ctx):
        with counting:
            executions[ctx.input()] = executions.get(ctx.input(), 0) + 1
        return 0

    def fan(ctx):
        return ctx.await_call(ctx.chain("count", b"c" + ctx.input()))

    cluster = FaasmCluster(n_hosts=2, capacity=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cluster.register_python("count", count)
        cluster.register_python("fan", fan)
        plane = cluster.ingestion(IngestionConfig(batch_size=4))

        def client(k):
            for i in range(40):
                tag = f"{k}-{i}".encode()
                cluster.submit("fan", b"s" + tag)
                assert cluster.invoke("fan", b"d" + tag, timeout=30.0)[0] == 0

        clients = [threading.Thread(target=client, args=(k,)) for k in range(6)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        plane.drain(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert len(executions) == 2 * 6 * 40
        assert set(executions.values()) == {1}
        for instance in cluster.instances:
            _wait_for(lambda: instance._receiving == WORKER_FLOOR)
            # A worker decrements ``_pooled`` after ``_complete`` has
            # released the caller, so it comes to rest a moment later.
            _wait_for(lambda: instance._pooled == 0 and instance.pool_backlog() == 0)
            _wait_for(
                lambda: instance._idle == len(instance._workers) - WORKER_FLOOR
            )
    finally:
        cluster.shutdown()
