"""Call registry and Python-guest context tests."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.runtime import CallStatus, FaasmCluster, InvocationRegistry
from repro.runtime.pyguest import PythonCallContext


class TestCallRegistry:
    def test_lifecycle(self):
        reg = InvocationRegistry()
        record = reg.create("fn", b"input")
        assert record.status is CallStatus.PENDING
        attempt = reg.new_attempt(record.call_id, "h1", epoch=0)
        assert reg.begin_attempt(record.call_id, attempt.number, "h1")
        reg.mark_running(record.call_id, "h1", cold_start=True)
        assert record.status is CallStatus.RUNNING
        assert record.cold_start
        assert reg.complete(record.call_id, 0, b"out")
        assert not reg.complete(record.call_id, 0, b"again")
        assert record.status is CallStatus.SUCCEEDED
        assert reg.output(record.call_id) == b"out"
        assert record.latency >= 0

    def test_failure_status(self):
        reg = InvocationRegistry()
        record = reg.create("fn", b"")
        reg.new_attempt(record.call_id, "h1", epoch=0)
        reg.complete(record.call_id, 1, b"boom")
        assert record.status is CallStatus.FAILED
        assert reg.wait(record.call_id) == 1
        assert b"boom" in reg.output(record.call_id)

    def test_wait_timeout(self):
        reg = InvocationRegistry()
        record = reg.create("fn", b"")
        with pytest.raises(TimeoutError):
            reg.wait(record.call_id, timeout=0.01)

    def test_wait_blocks_until_completion(self):
        reg = InvocationRegistry()
        record = reg.create("fn", b"")
        reg.new_attempt(record.call_id, "h1", epoch=0)

        def finisher():
            time.sleep(0.05)
            reg.complete(record.call_id, 0, b"done")

        threading.Thread(target=finisher).start()
        assert reg.wait(record.call_id, timeout=5) == 0

    def test_output_before_completion_rejected(self):
        reg = InvocationRegistry()
        record = reg.create("fn", b"")
        with pytest.raises(RuntimeError):
            reg.output(record.call_id)

    def test_unknown_call_id(self):
        reg = InvocationRegistry()
        with pytest.raises(KeyError):
            reg.get(999)

    def test_ids_are_unique_and_monotonic(self):
        reg = InvocationRegistry()
        ids = [reg.create("fn", b"").call_id for _ in range(10)]
        assert ids == sorted(set(ids))


class TestPythonCallContext:
    def test_object_round_trips(self):
        cluster = FaasmCluster(n_hosts=1)

        def guest(ctx):
            payload = ctx.input_object()
            ctx.write_output_object({"doubled": [x * 2 for x in payload]})

        cluster.register_python("g", guest)
        code, output = cluster.invoke("g", pickle.dumps([1, 2, 3]))
        assert code == 0
        assert pickle.loads(output) == {"doubled": [2, 4, 6]}

    def test_empty_input_object_is_none(self):
        cluster = FaasmCluster(n_hosts=1)
        seen = {}

        def guest(ctx):
            seen["input"] = ctx.input_object()

        cluster.register_python("g", guest)
        cluster.invoke("g")
        assert seen["input"] is None

    def test_chain_object_and_output_object(self):
        cluster = FaasmCluster(n_hosts=2)

        def child(ctx):
            ctx.write_output_object(ctx.input_object() + 1)

        def parent(ctx):
            call_id = ctx.chain_object("child", 41)
            assert ctx.await_call(call_id) == 0
            ctx.write_output_object(ctx.call_output_object(call_id))

        cluster.register_python("child", child)
        cluster.register_python("parent", parent)
        code, output = cluster.invoke("parent")
        assert pickle.loads(output) == 42

    def test_ddo_constructors(self):
        cluster = FaasmCluster(n_hosts=1)
        cluster.global_state.set_value("vec", np.arange(4.0).tobytes())

        def guest(ctx):
            vec = ctx.vector_async("vec", 4)
            d = ctx.distributed_dict("cfg")
            d.put("k", 1)
            lst = ctx.distributed_list("log")
            lst.append(b"entry")
            ctx.write_output(str(vec[3]).encode())

        cluster.register_python("g", guest)
        code, output = cluster.invoke("g")
        assert code == 0
        assert float(output) == 3.0

    def test_host_property_reports_executing_host(self):
        cluster = FaasmCluster(n_hosts=2)
        hosts = []

        def guest(ctx):
            hosts.append(ctx.host)

        cluster.register_python("g", guest)
        cluster.invoke("g")
        assert hosts and hosts[0] in ("host-0", "host-1")

    def test_time_ns_monotonic(self):
        cluster = FaasmCluster(n_hosts=1)
        times = []

        def guest(ctx):
            times.append(ctx.time_ns())
            times.append(ctx.time_ns())

        cluster.register_python("g", guest)
        cluster.invoke("g")
        assert times[1] >= times[0]
