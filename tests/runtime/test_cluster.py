"""FAASM runtime integration tests: scheduling, chaining, warm reuse."""

import pickle

import numpy as np
import pytest

from repro.runtime import CallStatus, FaasmCluster

HELLO_SRC = """
extern void write_call_output(int buf, int len);
export int main() {
    int[] msg = new int[2];
    storeb(ptr(msg), 104); storeb(ptr(msg) + 1, 105);
    write_call_output(ptr(msg), 2);
    return 0;
}
"""


@pytest.fixture
def cluster():
    return FaasmCluster(n_hosts=2)


def test_invoke_wasm_function(cluster):
    cluster.upload("hello", HELLO_SRC)
    code, output = cluster.invoke("hello")
    assert code == 0
    assert output == b"hi"


def test_invoke_python_function(cluster):
    def guest(ctx):
        n = int(ctx.input() or b"0")
        ctx.write_output(str(n * n).encode())

    cluster.register_python("square", guest)
    code, output = cluster.invoke("square", b"12")
    assert code == 0
    assert output == b"144"


def test_python_guest_error_contained(cluster):
    def bad(ctx):
        raise ValueError("boom")

    cluster.register_python("bad", bad)
    code, output = cluster.invoke("bad")
    assert code == 1
    assert b"boom" in output


def test_unknown_function_rejected(cluster):
    with pytest.raises(KeyError):
        cluster.invoke("ghost")


def test_chaining_python_functions(cluster):
    def worker(ctx):
        ctx.write_output(str(int(ctx.input()) * 2).encode())

    def parent(ctx):
        ids = [ctx.chain("worker", str(i).encode()) for i in range(5)]
        codes = ctx.await_all(ids)
        assert all(c == 0 for c in codes)
        total = sum(int(ctx.call_output(cid)) for cid in ids)
        ctx.write_output(str(total).encode())

    cluster.register_python("worker", worker)
    cluster.register_python("parent", parent)
    code, output = cluster.invoke("parent")
    assert code == 0
    assert int(output) == sum(i * 2 for i in range(5))


def test_warm_faaslet_reuse(cluster):
    cluster.upload("hello", HELLO_SRC)
    for _ in range(5):
        assert cluster.invoke("hello")[0] == 0
    total_cold = cluster.total_cold_starts()
    total_calls = sum(i.metrics.calls_executed for i in cluster.instances)
    assert total_calls == 5
    # At most one cold start per host (round-robin touches both hosts).
    assert total_cold <= len(cluster.instances)


def test_warm_set_updated_in_global_tier(cluster):
    cluster.upload("hello", HELLO_SRC)
    cluster.invoke("hello")
    warm = cluster.warm_sets.warm_hosts("hello")
    assert len(warm) >= 1
    assert warm <= {"host-0", "host-1"}


def test_shared_scheduling_prefers_warm_host():
    cluster = FaasmCluster(n_hosts=4)
    cluster.upload("hello", HELLO_SRC)
    for _ in range(8):
        cluster.invoke("hello")
    # Cold starts should be well below one per call thanks to sharing.
    assert cluster.total_cold_starts() <= 2


def test_state_shared_across_hosts(cluster):
    def writer(ctx):
        vec = ctx.vector_async("w", 4)
        vec[0] = 42.0
        vec.push()

    def reader(ctx):
        vec = ctx.vector_async("w", 4)
        vec.pull()
        ctx.write_output(str(vec[0]).encode())

    cluster.global_state.set_value("w", np.zeros(4).tobytes())
    cluster.register_python("writer", writer)
    cluster.register_python("reader", reader)
    assert cluster.invoke("writer")[0] == 0
    code, output = cluster.invoke("reader")
    assert code == 0
    assert float(output) == 42.0


def test_call_records_track_lifecycle(cluster):
    cluster.upload("hello", HELLO_SRC)
    call_id = cluster.dispatch("hello")
    assert cluster.calls.wait(call_id, 10) == 0
    record = cluster.calls.get(call_id)
    assert record.status is CallStatus.SUCCEEDED
    assert record.host in ("host-0", "host-1")
    assert record.latency >= 0


def test_proto_based_cold_start_used(cluster):
    src = """
    global int ready = 0;
    export void init() { ready = 1; }
    export int main() { return ready; }
    """
    cluster.upload("warmed", src, init="init")
    code, _ = cluster.invoke("warmed")
    assert code == 1  # initialisation state came from the Proto-Faaslet


def test_upload_stores_artifacts(cluster):
    cluster.upload("hello", HELLO_SRC)
    assert cluster.object_store.exists("functions/hello.src")
    # The snapshot lands as a content-addressed manifest (digests + blobs),
    # not a monolithic page blob; the pages live in the repository.
    assert cluster.object_store.exists("protos/hello.manifest")
    from repro.faaslet import SnapshotManifest

    manifest = SnapshotManifest.from_bytes(
        cluster.object_store.get("protos/hello.manifest")
    )
    assert manifest.function == "hello"
    assert manifest.version == 1
    proto = cluster.instances[0].snapshots.get_proto("hello")
    assert manifest.n_pages == len(proto.frozen_pages)


def test_concurrent_invocations(cluster):
    def slowish(ctx):
        total = sum(range(10000))
        ctx.write_output(str(total).encode())

    cluster.register_python("slow", slowish)
    ids = [cluster.dispatch("slow") for _ in range(16)]
    for cid in ids:
        assert cluster.calls.wait(cid, 30) == 0


def test_network_meter_counts_state_traffic(cluster):
    def pusher(ctx):
        ctx.state.set_state("blob", b"x" * 10_000)
        ctx.state.push_state("blob")

    cluster.register_python("pusher", pusher)
    cluster.invoke("pusher")
    assert cluster.total_network_bytes() >= 10_000


def test_an_unpooled_send_carries_one_call(cluster, monkeypatch):
    """A receiving worker runs an unpooled batch itself, so the one road
    refuses to build one of several calls; nothing reaches the bus."""
    cluster.register_python("echo", lambda ctx: 0)
    records = [cluster.calls.create("echo", b"") for _ in range(2)]
    sent = []
    monkeypatch.setattr(cluster.bus, "send", lambda host, message: sent.append(message))
    with pytest.raises(ValueError, match="one call"):
        cluster._place_and_send("echo", records, cluster.instances[0])
    assert sent == []
    assert [record.status for record in records] == [CallStatus.PENDING] * 2
