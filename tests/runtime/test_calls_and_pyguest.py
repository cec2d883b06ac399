"""Call registry and Python-guest context tests."""

import gc
import os
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.runtime import CallStatus, FaasmCluster, InvocationRegistry
from repro.runtime.pyguest import PythonCallContext


class TestCallRegistry:
    def test_lifecycle(self):
        reg = InvocationRegistry()
        record = reg.create("fn", b"input")
        assert record.status is CallStatus.PENDING
        number = reg.new_attempt(record.call_id, "h1", epoch=0)
        assert reg.begin_attempt(record.call_id, number, "h1")
        record.cold_start = True  # the executor had to cold-start
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

    def test_record_is_slotted_and_small(self):
        """Every record is retained, so its size is a budget: one slotted
        record with the current attempt as fields. Creating, placing,
        claiming and completing a 64-B echo allocates at most 600 B per
        call (a list of attempt records cost ~890 B)."""
        reg = InvocationRegistry()
        assert not hasattr(reg.create("fn", b""), "__dict__")
        n = 10_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = reg.create_many("echo", [os.urandom(64) for _ in range(n)])
            numbers = reg.new_attempts([(r, "h0", 0) for r in records])
            for record, number in zip(records, numbers):
                assert reg.begin_attempt(record.call_id, number, "h0")
                assert reg.complete_attempt(
                    record.call_id, number, 0, record.input_data
                )
            del numbers
            gc.collect()
            per_call = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_call <= 600, f"{per_call:.0f} B per call"

    def test_open_calls_lose_no_placement_to_a_concurrent_scan(self):
        """Placement rounds racing the monitor's pruning scan: every placed
        call that has not finished stays open, every finished one leaves."""
        reg = InvocationRegistry()
        stop = threading.Event()
        placed: list = []

        def scanner():
            while not stop.is_set():
                reg.open_calls()
                time.sleep(0)  # let a placer take the mutex

        def placer():
            for _ in range(200):
                records = reg.create_many("fn", [b""] * 4)
                numbers = reg.new_attempts([(r, "h0", 0) for r in records])
                assert reg.complete_attempt(records[0].call_id, numbers[0], 0, b"")
                placed.extend(records)

        placers = [threading.Thread(target=placer) for _ in range(4)]
        scan = threading.Thread(target=scanner)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            scan.start()
            for thread in placers:
                thread.start()
            for thread in placers:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            stop.set()
            scan.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not scan.is_alive()
        open_ids = {record.call_id for record in reg.open_calls()}
        assert len(placed) == 4 * 200 * 4
        assert open_ids == {r.call_id for r in placed if not r.done.is_set()}
        assert len(open_ids) == 4 * 200 * 3

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
