"""Every call takes one road onto the bus (DESIGN.md §11).

An external ``dispatch``, a guest's chained call, the monitor's
``redispatch`` and the ingestion plane's ``submit`` all go through
``FaasmCluster._place_and_send``: what reaches the bus is always an
``ExecuteBatch``, and every resulting call record carries at least one
attempt. Whether a call may grow the receiving host's worker set is the
batch's ``pooled`` field, never the kind of message.
"""

import pytest

from repro.runtime import CallStatus, FaasmCluster, RetryPolicy
from repro.runtime.bus import ExecuteBatch, Shutdown
from repro.runtime.ingest import IngestionConfig

#: Writes lost deliveries off quickly, and never excuses one because the
#: host's pool is backlogged (the pool *is* backlogged in these tests).
FAST = RetryPolicy(
    attempt_timeout=0.1, base_delay=0.01, max_delay=0.05, backlog_grace=0.0
)


def _spy_on_bus(cluster, lose=lambda batch: False) -> list:
    """Record every work message handed to the bus; ``lose(batch)`` drops
    it on the wire instead of delivering."""
    seen = []
    send, send_many = cluster.bus.send, cluster.bus.send_many

    def spy_send(host, message):
        if isinstance(message, Shutdown):
            return send(host, message)
        seen.append(message)
        if not lose(message):
            send(host, message)

    def spy_send_many(host, messages):
        messages = list(messages)
        seen.extend(messages)
        send_many(host, [m for m in messages if not lose(m)])

    cluster.bus.send, cluster.bus.send_many = spy_send, spy_send_many
    return seen


def _parent(ctx):
    child = ctx.chain("child", ctx.input())
    code = ctx.await_call(child)
    ctx.write_output(b"via:" + ctx.call_output(child))
    return code


def _child(ctx):
    ctx.write_output(b"c" + ctx.input())
    return 0


@pytest.fixture
def cluster():
    cluster = FaasmCluster(n_hosts=2, retry_policy=FAST)
    cluster.register_python("parent", _parent)
    cluster.register_python("child", _child)
    yield cluster
    cluster.shutdown()


def test_every_entry_point_puts_only_batches_on_the_wire(cluster):
    lost_once = set()

    def lose_first_child_delivery(batch):
        # One lost delivery, so the monitor's redispatch is on the wire too.
        if batch.function == "child" and not lost_once:
            lost_once.add(batch.items[0][0])
            return True
        return False

    seen = _spy_on_bus(cluster, lose_first_child_delivery)
    direct = cluster.dispatch("parent", b"1")  # external + its chained call
    assert cluster.calls.wait(direct, 10.0) == 0
    admitted, outcome = cluster.submit("parent", b"2")
    assert outcome == "admitted"
    cluster.ingestion().drain(timeout=10.0)

    assert seen and all(type(message) is ExecuteBatch for message in seen)
    records = cluster.calls.all_records()
    assert len(records) == 4  # two parents, two children
    for record in records:
        assert record.status is CallStatus.SUCCEEDED
        assert len(record.attempts) >= 1
    (retried,) = lost_once
    assert cluster.calls.get(retried).retries == 1
    # Only ingested work asks for the pool; direct, chained and retried
    # calls each get a thread of their own.
    pooled = {m.function for m in seen if m.pooled}
    assert pooled == {"parent"}
    assert [m.pooled for m in seen if m.function == "child"] == [False] * 3


def test_retried_chained_call_gets_its_own_worker():
    """Fan-out deeper than the pooled limit: the workers running pooled
    parents on a one-host, capacity-2 cluster block in ``await_call`` on
    children whose first delivery is lost. The retried children must not
    queue for the workers their parents occupy, or nothing ever finishes."""
    cluster = FaasmCluster(n_hosts=1, capacity=2, retry_policy=FAST)
    try:
        cluster.register_python("parent", _parent)
        cluster.register_python("child", _child)
        _spy_on_bus(
            cluster,
            lambda m: m.function == "child" and m.items[0][1] == 0,
        )
        plane = cluster.ingestion(IngestionConfig(batch_size=8))
        ids = [cluster.submit("parent", b"7")[0] for _ in range(6)]
        plane.drain(timeout=30.0)
        for call_id in ids:
            record = cluster.calls.get(call_id)
            assert record.status is CallStatus.SUCCEEDED
            assert record.output_data == b"via:c7"
        children = [
            r for r in cluster.calls.all_records() if r.function == "child"
        ]
        assert len(children) == 6
        assert all(child.retries == 1 for child in children)
    finally:
        cluster.shutdown()
