"""Two-tier state architecture tests (§4.2)."""

import numpy as np
import pytest

from repro.state import (
    GlobalStateStore,
    LocalTier,
    StateAPI,
    StateClient,
    StateKeyError,
    TransferMeter,
)
from repro.state.local import _IntervalSet


@pytest.fixture
def store():
    return GlobalStateStore()


def make_host(store, name="host-1"):
    client = StateClient(store, TransferMeter())
    return StateAPI(LocalTier(name, client))


def test_set_local_then_push(store):
    api = make_host(store)
    api.set_state("k", b"hello")
    assert not store.exists("k")  # local only until push
    api.push_state("k")
    assert store.get_value("k") == b"hello"


def test_pull_from_global(store):
    store.set_value("k", b"world")
    api = make_host(store)
    view = api.get_state("k")
    assert bytes(view) == b"world"


def test_get_state_creates_sized_value(store):
    api = make_host(store)
    view = api.get_state("fresh", size=16)
    assert len(view) == 16
    assert bytes(view) == b"\x00" * 16


def test_cross_host_propagation(store):
    a = make_host(store, "host-a")
    b = make_host(store, "host-b")
    a.set_state("k", b"from-a")
    a.push_state("k")
    assert bytes(b.get_state("k")) == b"from-a"
    # b writes locally, pushes; a pulls and sees the update.
    b.set_state("k", b"from-b")
    b.push_state("k")
    a.pull_state("k")
    assert bytes(a.get_state("k")) == b"from-b"


def test_local_tier_shared_within_host(store):
    """Two users of the same local tier see the same replica bytes."""
    api = make_host(store)
    view1 = api.get_state("k", size=8)
    view2 = api.get_state("k")
    view1[0:4] = b"abcd"
    assert bytes(view2[0:4]) == b"abcd"  # zero-copy shared backing


def test_offset_pull_only_fetches_chunk(store):
    store.set_value("big", bytes(range(256)) * 16)  # 4096 bytes
    api = make_host(store)
    meter = api.tier.client.meter
    chunk = api.get_state_offset("big", 1024, 128)
    assert bytes(chunk) == (bytes(range(256)) * 16)[1024:1152]
    assert meter.received_bytes == 128  # only the chunk crossed the network


def test_chunk_gap_merging(store):
    store.set_value("v", bytes(1000))
    api = make_host(store)
    api.pull_state_offset("v", 0, 100)
    api.pull_state_offset("v", 200, 100)
    meter = api.tier.client.meter
    before = meter.received_bytes
    # Pulling [0, 300) should fetch only the missing [100, 200) gap.
    api.tier.pull_chunk("v", 0, 300)
    assert meter.received_bytes - before == 100


def test_push_offset(store):
    store.set_value("v", bytes(100))
    api = make_host(store)
    api.pull_state("v")
    api.set_state_offset("v", b"XY", 10)
    api.push_state_offset("v", 10, 2)
    assert store.get_value("v")[9:13] == b"\x00XY\x00"


def test_append_state(store):
    a = make_host(store, "a")
    b = make_host(store, "b")
    a.append_state("log", b"one|")
    b.append_state("log", b"two|")
    assert a.read_appended("log") == b"one|two|"


def test_missing_key_raises(store):
    api = make_host(store)
    with pytest.raises(StateKeyError):
        api.pull_state("nope")


def test_transfer_meter_counts_both_directions(store):
    api = make_host(store)
    api.set_state("k", b"x" * 100)
    api.push_state("k")
    meter = api.tier.client.meter
    api.pull_state("k")  # the pushed bytes are synced at the push's version
    assert (meter.sent_bytes, meter.received_bytes) == (100, 0)
    store.set_value("k", b"y" * 100)  # replaced behind the host's back
    api.pull_state("k")
    assert meter.sent_bytes == 100
    assert meter.received_bytes == 100


def test_local_reads_do_not_touch_network(store):
    store.set_value("k", b"x" * 50)
    api = make_host(store)
    api.get_state("k")
    meter = api.tier.client.meter
    received = meter.received_bytes
    for _ in range(10):
        api.get_state("k")  # warm: replica already present
    assert meter.received_bytes == received


def test_consistent_write_serialises(store):
    api1 = make_host(store, "h1")
    api2 = make_host(store, "h2")
    store.set_value("ctr", (0).to_bytes(8, "little"))
    for api in (api1, api2) * 5:
        with api.consistent_write("ctr") as view:
            value = int.from_bytes(bytes(view), "little") + 1
            view[:] = value.to_bytes(8, "little")
    assert int.from_bytes(store.get_value("ctr"), "little") == 10


def test_interval_set():
    s = _IntervalSet()
    s.add(0, 10)
    s.add(20, 30)
    assert s.covers(0, 10)
    assert not s.covers(5, 25)
    assert s.missing(0, 30) == [(10, 20)]
    s.add(10, 20)
    assert s.covers(0, 30)
    assert s.spans == [(0, 30)]


def test_interval_set_edge_cases():
    s = _IntervalSet()
    assert s.covers(5, 5)  # empty range always covered
    s.add(5, 5)  # empty add is a no-op
    assert s.spans == []
    s.add(10, 20)
    s.add(0, 15)
    assert s.spans == [(0, 20)]
    assert s.missing(0, 25) == [(20, 25)]


def test_state_size(store):
    api = make_host(store)
    store.set_value("k", bytes(77))
    assert api.state_size("k") == 77


def test_set_state_shrinks_value(store):
    """Replacing a value with a shorter one must truncate: no stale tail
    bytes may survive into the next push (regression: pi/part values)."""
    api = make_host(store)
    api.set_state("k", b"123456789")
    api.push_state("k")
    api.set_state("k", b"AB")
    api.push_state("k")
    assert store.get_value("k") == b"AB"
    assert api.state_size("k") == 2
    assert bytes(api.get_state("k")) == b"AB"


def test_shrunk_value_regrows(store):
    api = make_host(store)
    api.set_state("k", b"long-original")
    api.set_state("k", b"x")
    api.set_state("k", b"regrown-value!")
    api.push_state("k")
    assert store.get_value("k") == b"regrown-value!"


def test_delete(store):
    api = make_host(store)
    api.set_state("k", b"x")
    api.push_state("k")
    api.delete("k")
    assert not store.exists("k")
    assert not api.tier.has_replica("k")
