"""The global tier's partitions: stripes, their accounting and resharding
(the §7 autoscaling-storage extension)."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosPlan
from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import StripeOutage
from repro.chaos.state import ChaosStateStore
from repro.state import GlobalStateStore, LocalTier, StateAPI, StateClient
from repro.state.kv import StateKeyError, StateUnavailableError


def test_routing_is_stable():
    store = GlobalStateStore(n_stripes=4)
    assert store.stripe_of("key") == store.stripe_of("key")
    assert store.stripe_of("key") == zlib.crc32(b"key") % 4
    with pytest.raises(ValueError):
        GlobalStateStore(n_stripes=0)
    with pytest.raises(ValueError):
        store.reshard(0)


def test_basic_operations_across_shards():
    store = GlobalStateStore(n_stripes=4)
    for i in range(40):
        store.set_value(f"key-{i}", f"value-{i}".encode())
    for i in range(40):
        assert store.get_value(f"key-{i}") == f"value-{i}".encode()
    assert len(store.keys()) == 40
    store.delete("key-0")
    assert not store.exists("key-0")
    with pytest.raises(StateKeyError):
        store.get_value("key-0")


def test_keys_spread_over_shards():
    store = GlobalStateStore(n_stripes=4)
    for i in range(200):
        store.set_value(f"key-{i}", b"x" * 100)
    sizes = store.stripe_sizes()
    assert all(size > 0 for size in sizes)
    assert store.imbalance() < 2.0  # hashing balances reasonably


def test_ranges_and_append_route_consistently():
    store = GlobalStateStore(n_stripes=3)
    store.set_value("k", bytes(10))
    store.set_range("k", 2, b"AB")
    assert store.get_range("k", 2, 2) == b"AB"
    store.append("log", b"one")
    store.append("log", b"two")
    assert store.get_value("log") == b"onetwo"


def test_atomic_update_and_locks_route_to_same_shard():
    store = GlobalStateStore(n_stripes=5)
    store.atomic_update("ctr", lambda old: b"1" if old is None else old + b"1")
    store.atomic_update("ctr", lambda old: old + b"1")
    assert store.get_value("ctr") == b"11"
    lock = store.lock_for("ctr")
    assert lock is store.lock_for("ctr")  # same stripe, same lock object


def test_reshard_preserves_all_values():
    store = GlobalStateStore(n_stripes=2)
    expected = {}
    for i in range(60):
        key, value = f"k{i}", f"v{i}".encode()
        store.set_value(key, value)
        expected[key] = value
    versions = {key: store.version(key) for key in expected}
    store.reshard(7)
    assert len(store.stripe_ops) == 7
    assert {key: store.version(key) for key in expected} == versions
    for key, value in expected.items():
        assert store.get_value(key) == value
    assert len(store.keys()) == 60


def test_drop_in_replacement_for_two_tier_state():
    """The whole state stack runs unchanged over any stripe count."""
    store = GlobalStateStore(n_stripes=4)
    a = StateAPI(LocalTier("a", StateClient(store)))
    b = StateAPI(LocalTier("b", StateClient(store)))
    a.set_state("w", b"hello")
    a.push_state("w")
    assert bytes(b.get_state("w")) == b"hello"
    with a.consistent_write("w") as view:
        view[:] = b"HELLO"
    b.pull_state("w")
    assert bytes(b.get_state("w")) == b"HELLO"


def test_cluster_runs_on_sharded_tier():
    """A default FAASM cluster's global tier is the partitioned store."""
    from repro.runtime import FaasmCluster

    cluster = FaasmCluster(n_hosts=2)

    def guest(ctx):
        ctx.state.set_state("result", ctx.input())
        ctx.state.push_state("result")

    cluster.register_python("g", guest)
    assert cluster.invoke("g", b"sharded!")[0] == 0
    assert cluster.global_state.get_value("result") == b"sharded!"
    assert sum(cluster.global_state.stripe_ops) > 0


def test_held_distributed_lock_survives_reshard():
    store = GlobalStateStore(n_stripes=2)
    store.set_value("k", b"v")
    lock = store.lock_for("k")
    lock.acquire_write()
    store.reshard(5)
    assert store.lock_for("k") is lock
    assert lock.write_held
    lock.release_write()


def test_outage_follows_the_stripe_after_reshard():
    """A chaos store resharded 16 -> 4 is dark for exactly the keys that
    hash onto the outage stripe under the new count."""
    plan = ChaosPlan(seed=7, stripe_outages=(StripeOutage(1, 0, 10**6),))
    store = ChaosStateStore(ChaosEngine(plan))
    store.reshard(4)
    keys = [f"key-{i}" for i in range(64)]
    dark = set()
    for key in keys:
        try:
            store.set_value(key, b"x")
        except StateUnavailableError:
            dark.add(key)
    assert dark == {k for k in keys if zlib.crc32(k.encode()) % 4 == 1}
    assert 0 < len(dark) < len(keys)


@given(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=50, unique=True),
       st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_reshard_roundtrip_property(keys, n1, n2):
    store = GlobalStateStore(n_stripes=n1)
    for key in keys:
        store.set_value(key, key.encode())
    versions = {key: store.version(key) for key in keys}
    store.reshard(n2)
    for key in keys:
        assert store.get_value(key) == key.encode()
        assert store.version(key) == versions[key]
