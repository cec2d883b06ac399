"""Message-bus tests (Fig. 5 sharing queue)."""

import threading
import time

import pytest

from repro.runtime import FaasmCluster
from repro.runtime.bus import ExecuteBatch, MessageBus, Shutdown
from repro.runtime.instance import WORKER_FLOOR
from tests.conftest import wait_for


def _work(call_id, function="fn", **kwargs):
    """A one-call work message."""
    return ExecuteBatch(function, ((call_id, 0),), **kwargs)


class TestMessageBus:
    def test_fifo_delivery(self):
        bus = MessageBus()
        bus.register("h1")
        for i in range(5):
            bus.send("h1", _work(i))
        received = [bus.receive("h1", timeout=1).items[0][0] for _ in range(5)]
        assert received == [0, 1, 2, 3, 4]

    def test_unknown_endpoint_rejected(self):
        bus = MessageBus()
        with pytest.raises(KeyError):
            bus.send("ghost", Shutdown())

    def test_duplicate_registration_rejected(self):
        bus = MessageBus()
        bus.register("h1")
        with pytest.raises(ValueError):
            bus.register("h1")

    def test_receive_timeout_returns_none(self):
        bus = MessageBus()
        bus.register("h1")
        assert bus.receive("h1", timeout=0.01) is None

    def test_queues_are_per_host(self):
        bus = MessageBus()
        bus.register("h1")
        bus.register("h2")
        bus.send("h1", _work(1, "a"))
        assert bus.pending("h1") == 1
        assert bus.pending("h2") == 0

    def test_cross_thread_delivery(self):
        bus = MessageBus()
        bus.register("h1")
        got = []

        def consumer():
            got.append(bus.receive("h1", timeout=5))

        t = threading.Thread(target=consumer)
        t.start()
        bus.send("h1", _work(42))
        t.join(5)
        assert got and got[0].items == ((42, 0),)

    def test_shared_accounting(self):
        bus = MessageBus()
        bus.register("h1")
        bus.send("h1", _work(1, "a", shared=True))
        bus.send("h1", _work(2, "a", shared=False))
        assert bus.stats.sent == 2
        assert bus.stats.shared == 1


class TestClusterOverBus:
    def test_calls_flow_through_bus(self):
        cluster = FaasmCluster(n_hosts=2)
        cluster.register_python("f", lambda ctx: ctx.write_output(b"ok"))
        code, output = cluster.invoke("f")
        assert (code, output) == (0, b"ok")
        assert cluster.bus.stats.sent >= 1
        cluster.shutdown()

    def test_work_sharing_crosses_hosts(self):
        """A call arriving at a non-warm host is shared with the warm one
        over the bus (§5.1 / Fig. 5)."""
        cluster = FaasmCluster(n_hosts=2)
        cluster.upload("fn", "export int main() { return 0; }")
        # Round-robin sends consecutive external calls to alternating
        # schedulers; after the first cold start one of them must share.
        for _ in range(6):
            assert cluster.invoke("fn")[0] == 0
        assert cluster.bus.stats.shared >= 1
        shared_received = sum(i.shared_received for i in cluster.instances)
        assert shared_received == cluster.bus.stats.shared
        cluster.shutdown()

    def test_shutdown_stops_dispatchers(self):
        cluster = FaasmCluster(n_hosts=2)
        cluster.shutdown()
        for instance in cluster.instances:
            assert instance._workers == []

    def test_drain_waits_for_inflight_calls(self):
        cluster = FaasmCluster(n_hosts=1)
        done = threading.Event()

        def slow(ctx):
            done.wait(5)
            ctx.write_output(b"late")

        cluster.register_python("slow", slow)
        call_id = cluster.dispatch("slow")
        done.set()
        cluster.drain(timeout=10)
        assert cluster.calls.get(call_id).done.is_set()

    def test_executor_crash_fails_call_not_host(self):
        cluster = FaasmCluster(n_hosts=1)

        def bad(ctx):
            raise MemoryError("synthetic")

        cluster.register_python("bad", bad)
        code, _ = cluster.invoke("bad")
        assert code == 1
        # Host still serves later calls.
        cluster.register_python("good", lambda ctx: ctx.write_output(b"y"))
        assert cluster.invoke("good") == (0, b"y")

    def test_executor_crash_is_counted(self):
        """A bug outside the guest fails the call and is counted, not
        swallowed silently."""
        cluster = FaasmCluster(n_hosts=1)
        cluster.register_python("good", lambda ctx: ctx.write_output(b"y"))

        def crash(record, message):
            raise RuntimeError("synthetic executor bug")

        cluster.instances[0].execute = crash
        assert cluster.invoke("good")[0] == 1
        swallowed = cluster.telemetry.metrics.counter(
            "errors.swallowed", site="instance.execute"
        )
        assert swallowed.value == 1


class TestEndpointStrictness:
    """A typo'd or deregistered host must surface as KeyError, never as a
    silently-buffered message no dispatcher will ever drain."""

    def test_receive_unknown_host_raises(self):
        bus = MessageBus()
        with pytest.raises(KeyError):
            bus.receive("ghost", timeout=0.01)

    def test_pending_unknown_host_raises(self):
        bus = MessageBus()
        with pytest.raises(KeyError):
            bus.pending("ghost")

    def test_send_never_auto_creates_a_queue(self):
        bus = MessageBus()
        with pytest.raises(KeyError):
            bus.send("ghost", _work(1))
        assert bus.hosts() == []

    def test_deregister_discards_queue_and_closes_endpoint(self):
        bus = MessageBus()
        bus.register("h1")
        bus.send("h1", _work(1))
        bus.deregister("h1")
        assert bus.hosts() == []
        with pytest.raises(KeyError):
            bus.send("h1", _work(2))
        with pytest.raises(KeyError):
            bus.receive("h1", timeout=0.01)

    def test_deregister_unknown_host_raises(self):
        bus = MessageBus()
        with pytest.raises(KeyError):
            bus.deregister("ghost")

    def test_deregistered_host_can_reregister(self):
        bus = MessageBus()
        bus.register("h1")
        bus.deregister("h1")
        bus.register("h1")  # a fresh, empty queue
        assert bus.pending("h1") == 0


class TestHostQueue:
    """A host's queue is a C-level FIFO: order per host, one receiver woken
    per message, ``None`` on timeout, depths, and ``Shutdown`` passed on."""

    @staticmethod
    def _receivers(bus, host, n, timeout=5.0):
        """``n`` threads each receiving until ``Shutdown`` (or a timeout);
        returns the threads and their per-thread call-id lists."""
        got = [[] for _ in range(n)]

        def receive(mine):
            while isinstance(message := bus.receive(host, timeout), ExecuteBatch):
                mine.append(message.items[0][0])

        threads = [threading.Thread(target=receive, args=(mine,)) for mine in got]
        for thread in threads:
            thread.start()
        return threads, got

    def test_fifo_per_host_with_two_blocked_receivers(self):
        bus = MessageBus()
        bus.register("h1")
        bus.register("h2")
        receivers = {h: self._receivers(bus, h, 2) for h in ("h1", "h2")}
        for i in range(200):
            bus.send("h1", _work(i))
            bus.send("h2", _work(1000 + i))
        for host, (threads, _got) in receivers.items():
            bus.send_many(host, [Shutdown(), Shutdown()])
            for thread in threads:
                thread.join(5)
        for host, base in (("h1", 0), ("h2", 1000)):
            threads, got = receivers[host]
            assert not any(thread.is_alive() for thread in threads)
            for mine in got:
                assert mine == sorted(mine)  # each receiver sees FIFO order
            assert sorted(got[0] + got[1]) == list(range(base, base + 200))

    def test_send_many_wakes_up_to_k_receivers(self):
        bus = MessageBus()
        bus.register("h1")
        got = []

        def receive_one():
            got.append(bus.receive("h1", timeout=5))

        threads = [threading.Thread(target=receive_one) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let all four block
        bus.send_many("h1", [_work(i) for i in range(3)])
        # Three messages wake three receivers; the fourth stays blocked.
        wait_for(lambda: sum(thread.is_alive() for thread in threads) == 1)
        assert sorted(m.items[0][0] for m in got) == [0, 1, 2]
        bus.send("h1", Shutdown())
        for thread in threads:
            thread.join(5)
        assert isinstance(got[-1], Shutdown)

    def test_receive_timeout_returns_none_after_the_timeout(self):
        bus = MessageBus()
        bus.register("h1")
        assert bus.receive("h1", timeout=0) is None
        start = time.monotonic()
        assert bus.receive("h1", timeout=0.05) is None
        assert time.monotonic() - start >= 0.04
        bus.send("h1", _work(7))
        assert bus.receive("h1", timeout=0).items == ((7, 0),)

    def test_pending_and_total_pending(self):
        bus = MessageBus()
        bus.register("h1")
        bus.register("h2")
        bus.send("h1", _work(1))
        bus.send_many("h1", [_work(2), _work(3)])
        bus.send_many("h2", [_work(4), _work(5)])
        bus.send_many("h2", [])
        assert (bus.pending("h1"), bus.pending("h2"), bus.total_pending()) == (3, 2, 5)
        bus.receive("h1", timeout=1)
        assert (bus.pending("h1"), bus.total_pending()) == (2, 4)
        assert bus.update_queue_gauges() == {"h1": 2, "h2": 2}
        while bus.receive("h2", timeout=0) is not None:
            pass
        assert (bus.pending("h2"), bus.total_pending()) == (0, 2)

    def test_shared_calls_count_per_receiving_host(self):
        bus = MessageBus()
        bus.register("h1")
        bus.register("h2")
        bus.send("h1", ExecuteBatch("a", ((1, 0), (2, 0)), shared=True))
        bus.send_many("h2", [_work(3, shared=True), _work(4)])
        counted = [bus.metrics.counter("bus.shared_calls", host=h).value for h in ("h1", "h2")]
        assert counted == [2, 1]

    def test_shutdown_is_passed_along_the_seats(self):
        """One ``Shutdown`` reaches every bus seat: the worker that takes
        it re-sends it while a seat is still occupied."""
        cluster = FaasmCluster(n_hosts=1)
        cluster.register_python("f", lambda ctx: ctx.write_output(b"ok"))
        assert cluster.invoke("f") == (0, b"ok")
        instance = cluster.instances[0]
        wait_for(lambda: instance._receiving == WORKER_FLOOR)
        sent = cluster.bus.stats.sent
        cluster.shutdown()
        assert instance._workers == []
        assert cluster.bus.pending(instance.host) == 0
        assert cluster.bus.stats.sent - sent == WORKER_FLOOR
