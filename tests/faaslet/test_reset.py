"""Every warm call starts from its Proto-Faaslet (§5.2): the in-place reset.

The secret guest picks its mode from its input size: 0 scans, 1 writes a
secret into a global, into a proto page (privatising it) and into a page
it grows past the proto's, 2 does the same and then traps. A scan returns
how many copies of the secret it finds: the global, plus every aligned
8-byte word of linear memory.
"""

import pytest

from repro.faaslet import FunctionDefinition, ProtoFaaslet
from repro.host import StandaloneEnvironment
from repro.minilang.stdlib import with_stdlib
from repro.runtime import FaasmCluster
from repro.wasm import parse_module
from repro.wasm.instance import TIERS
from repro.wasm.types import PAGE_SIZE

SECRET = 0x5EC2E7_0DDBA11

SECRET_WAT = f"""
(module
  (import "env" "input_size" (func $input_size (result i32)))
  (memory 2)
  (global $g (mut i64) (i64.const 0))
  (func (export "main") (result i32)
    (local $mode i32) (local $a i32) (local $end i32) (local $hits i32)
    (local $grown i32)
    (local.set $mode (call $input_size))
    (if (i32.eqz (local.get $mode))
      (then
        (local.set $hits (i64.ne (global.get $g) (i64.const 0)))
        (local.set $end (i32.mul (memory.size) (i32.const {PAGE_SIZE})))
        (block
          (loop
            (br_if 1 (i32.ge_u (local.get $a) (local.get $end)))
            (if (i64.eq (i64.load (local.get $a)) (i64.const {SECRET}))
              (then (local.set $hits (i32.add (local.get $hits) (i32.const 1)))))
            (local.set $a (i32.add (local.get $a) (i32.const 8)))
            (br 0)))
        (return (local.get $hits))))
    (global.set $g (i64.const {SECRET}))
    (i64.store (i32.const 4096) (i64.const {SECRET}))
    (local.set $grown (i32.mul (memory.grow (i32.const 1)) (i32.const {PAGE_SIZE})))
    (i64.store (i32.add (local.get $grown) (i32.const 8)) (i64.const {SECRET}))
    (if (i32.eq (local.get $mode) (i32.const 2)) (then (unreachable)))
    (i32.const 0)))
"""

WRITE, WRITE_AND_TRAP, SCAN = b"w", b"tt", b""


@pytest.mark.parametrize("tier", TIERS)
def test_a_reset_faaslet_holds_no_secret_of_the_calls_before_it(tier):
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build("secret", parse_module(SECRET_WAT))
    proto = ProtoFaaslet.capture(definition, env)
    faaslet = proto.restore(env, tier=tier)
    instance = faaslet.instance
    assert faaslet.call(WRITE)[0] == 0
    # The scan sees all three copies when nothing resets the Faaslet.
    assert faaslet.call(SCAN)[0] == 3
    faaslet.reset()
    assert faaslet.call(WRITE_AND_TRAP)[0] == 1
    faaslet.reset()
    assert faaslet.call(SCAN)[0] == 0
    # In place: the same instance, and a reset is not a restore.
    assert faaslet.instance is instance
    assert proto.restore_count == 1
    assert instance.memory.size_pages == len(proto.frozen_pages)


def test_no_secret_reaches_the_next_warm_call_on_a_cluster():
    cluster = FaasmCluster(n_hosts=1)
    cluster.upload("secret", SECRET_WAT, lang="wat")
    assert cluster.invoke("secret", WRITE)[0] == 0
    assert cluster.invoke("secret", WRITE_AND_TRAP)[0] == 1
    assert cluster.invoke("secret", SCAN)[0] == 0
    metrics = cluster.instances[0].metrics
    assert (metrics.cold_starts, metrics.warm_hits) == (1, 2)


def test_a_faaslet_without_a_snapshot_is_never_pooled():
    cluster = FaasmCluster(n_hosts=1)
    cluster.upload("secret", SECRET_WAT, lang="wat", snapshot=False)
    instance = cluster.instances[0]
    assert instance.pre_warm("secret") == 0
    assert cluster.invoke("secret", WRITE)[0] == 0
    assert cluster.invoke("secret", SCAN)[0] == 0
    assert instance.warm_count("secret") == 0
    assert instance.metrics.cold_starts == 2


def test_the_cgroup_is_charged_each_calls_own_instructions():
    cluster = FaasmCluster(n_hosts=1)
    cluster.upload(
        "spin",
        """
        export int main() {
            int acc = 0;
            for (int i = 0; i < 200; i = i + 1) { acc = acc + i; }
            return 0;
        }
        """,
    )
    instance = cluster.instances[0]
    charged = []
    for _ in range(4):
        assert cluster.invoke("spin")[0] == 0
        (faaslet,) = instance._warm["spin"]
        charged.append(instance.cgroup.member(faaslet.name).cpu_used)
    per_call = charged[0]
    assert per_call > 0 and faaslet.instance.instructions_executed == 4 * per_call
    assert charged == [per_call * n for n in (1, 2, 3, 4)]


def test_a_region_grows_past_its_pages_once_its_mappers_are_reclaimed():
    cluster = FaasmCluster(n_hosts=1)
    cluster.global_state.set_value("k", bytes(16))
    cluster.upload(
        "mapper",
        with_stdlib('export int main() { get_state("k", slen("k"), 16); return 0; }'),
    )
    assert cluster.invoke("mapper")[0] == 0
    assert cluster.invoke("mapper")[0] == 0
    instance = cluster.instances[0]
    region = instance.local_tier.replica("k").region
    assert region.mapping_count == 1  # the warm call unmapped the first
    assert instance.reclaim_idle() == 1
    assert region.mapping_count == 0
    instance.local_tier.replica("k", size=2 * PAGE_SIZE)
    assert region.n_pages == 2
