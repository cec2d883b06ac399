"""One cold-start road: a wasm function is registered only once its
Proto-Faaslet is published, and every call runs the code of the snapshot it
starts from (§5.2)."""

import pytest

from repro.faaslet import HostSnapshotCache
from repro.runtime import FaasmCluster
from repro.wasm import Trap

V1 = "export int main() { return 41; }"
V2 = "export int main() { return 107; }"

TRAPPING_INIT = """
export void init() { int zero = 0; int x = 1 / zero; }
export int main() { return 3; }
"""

#: A v128 global set by ``init`` and a v128 local: (7, 5, 0, 0) doubled
#: and its first two lanes summed is 24 on every call, warm or cold.
V128_WAT = """
(module
  (memory 1)
  (global $acc (mut v128) (v128.const 0x00000000000000000000000000000000))
  (func (export "init")
    (global.set $acc (v128.const 0x00000000000000000000000500000007)))
  (func (export "main") (result i32)
    (local $v v128)
    (local.set $v (i32x4.add (global.get $acc) (global.get $acc)))
    (global.set $acc (local.get $v))
    (i32.add (i32x4.extract_lane 0 (local.get $v))
             (i32x4.extract_lane 1 (local.get $v)))))
"""


@pytest.fixture
def cluster():
    c = FaasmCluster(n_hosts=1)
    yield c
    c.shutdown()


def test_a_v128_module_uploads_and_runs(cluster):
    cluster.upload("vec", V128_WAT, lang="wat", init="init")
    assert [cluster.invoke("vec")[0] for _ in range(3)] == [24, 24, 24]
    instance = cluster.instances[0]
    assert (instance.metrics.cold_starts, instance.metrics.warm_hits) == (1, 2)


def test_a_trapping_init_registers_nothing(cluster):
    with pytest.raises(Trap):
        cluster.upload("broken", TRAPPING_INIT, init="init")
    assert not cluster.registry.exists("broken")
    assert cluster.registry.snapshots.functions() == []
    assert not cluster.object_store.exists("functions/broken.obj")
    assert not cluster.object_store.exists("protos/broken.manifest")
    with pytest.raises(KeyError):
        cluster.instances[0].snapshots.get_proto("broken")


def test_a_reupload_whose_init_traps_keeps_the_previous_version(cluster):
    v1 = cluster.upload("fn", V1)
    obj = cluster.object_store.get("functions/fn.obj")
    assert cluster.invoke("fn")[0] == 41
    with pytest.raises(Trap):
        cluster.upload("fn", TRAPPING_INIT, init="init")
    assert cluster.registry.get("fn") is v1
    assert cluster.registry.snapshots.published("fn")[0].version == 1
    assert cluster.object_store.get("functions/fn.obj") == obj
    assert cluster.invoke("fn")[0] == 41  # warm
    cluster.instances[0].reclaim_idle()
    assert cluster.invoke("fn")[0] == 41  # cold


def _pool(instance, name):
    return list(instance._warm.get(name, []))


def test_after_a_reupload_a_warm_host_runs_the_new_code(cluster):
    """Upload v1, call it warm, upload v2: the next call finds only a stale
    Faaslet in the pool, closes it and cold-starts v2; the one after is a
    warm v2 call."""
    instance = cluster.instances[0]
    cluster.upload("fn", V1)
    assert [cluster.invoke("fn")[0] for _ in range(2)] == [41, 41]
    (stale,) = _pool(instance, "fn")
    v2 = cluster.upload("fn", V2)
    assert cluster.invoke("fn")[0] == 107
    assert cluster.invoke("fn")[0] == 107
    assert stale.instance is None  # closed, not leaked
    assert stale.name not in instance.cgroup.usage()
    (fresh,) = _pool(instance, "fn")
    assert fresh.definition is v2
    assert (instance.metrics.cold_starts, instance.metrics.warm_hits) == (2, 2)


def test_after_a_reupload_a_cold_host_runs_the_new_code():
    """Upload v1 and pre-warm it on one host only, upload v2: a cold start
    on the other host, then a call on the stale warm host, both run v2."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        warm, cold = cluster.instances
        cluster.upload("fn", V1)
        assert warm.pre_warm("fn") == 1
        (stale,) = _pool(warm, "fn")
        v2 = cluster.upload("fn", V2)
        for host in (cold, warm):
            faaslet, was_cold = host._acquire_faaslet(v2)
            assert was_cold and faaslet.definition is v2
            assert faaslet.call()[0] == 107
            host._release_faaslet("fn", faaslet)
        assert stale.instance is None
        assert [f.definition for f in _pool(warm, "fn")] == [v2]
        assert [cluster.invoke("fn")[0] for _ in range(4)] == [107] * 4
    finally:
        cluster.shutdown()


def test_pre_warm_after_a_reupload_closes_the_stale_faaslets(cluster):
    instance = cluster.instances[0]
    cluster.upload("fn", V1)
    instance.pre_warm("fn", 2)
    stale = _pool(instance, "fn")
    v2 = cluster.upload("fn", V2)
    assert instance.pre_warm("fn") == 1
    assert [f.definition for f in _pool(instance, "fn")] == [v2]
    assert all(f.instance is None for f in stale)


def test_a_host_pairs_each_manifest_with_the_definition_it_was_captured_from(cluster):
    """The proto a host materialises comes from the published definition,
    never from one that happens to share the function's name."""
    cache = HostSnapshotCache("other", cluster.registry.snapshots)
    v1 = cluster.upload("fn", V1)
    proto = cache.get_proto("fn")
    assert proto.definition is v1
    assert cache.get_proto("fn") is proto  # same version: cached
    v2 = cluster.upload("fn", V2)
    proto = cache.get_proto("fn")
    assert (proto.definition, proto.version) == (v2, 2)
    assert proto.restore(cluster.instances[0].env).call()[0] == 107
