"""Message-bus tests (Fig. 5 sharing queue)."""

import threading

import pytest

from repro.runtime import FaasmCluster
from repro.runtime.bus import ExecuteBatch, MessageBus, Shutdown


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
