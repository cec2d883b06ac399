"""Warm-pool reclamation (scale-to-zero) tests."""

import gc
import time
import weakref

from repro.runtime import FaasmCluster
from repro.runtime.instance import FaasmRuntimeInstance
from tests.conftest import wait_for

SRC = "export int main() { return 0; }"


def test_reclaim_frees_pool_and_warm_set():
    cluster = FaasmCluster(n_hosts=1)
    cluster.upload("fn", SRC)
    cluster.invoke("fn")
    instance = cluster.instances[0]
    assert instance.warm_count("fn") == 1
    assert cluster.warm_sets.warm_hosts("fn") == {"host-0"}

    reclaimed = instance.reclaim_idle()
    assert reclaimed == 1
    assert instance.warm_count("fn") == 0
    assert cluster.warm_sets.warm_hosts("fn") == set()


def test_the_faaslet_is_pooled_before_its_call_completes(monkeypatch):
    """A caller woken by the call's completion finds the Faaslet back in
    the pool, however long returning it takes."""
    release = FaasmRuntimeInstance._release_faaslet

    def slow_release(self, function, faaslet):
        time.sleep(0.05)
        release(self, function, faaslet)

    monkeypatch.setattr(FaasmRuntimeInstance, "_release_faaslet", slow_release)
    cluster = FaasmCluster(n_hosts=1)
    cluster.upload("fn", SRC)
    assert cluster.invoke("fn")[0] == 0
    assert cluster.instances[0].warm_count("fn") == 1


def test_reclaim_keeps_requested_floor():
    cluster = FaasmCluster(n_hosts=1, capacity=16)
    # A function slow enough that dispatches overlap, forcing the pool to
    # grow beyond one Faaslet.
    cluster.upload(
        "fn",
        """
        export int main() {
            int acc = 0;
            for (int i = 0; i < 150000; i = i + 1) { acc = acc + i; }
            return 0;
        }
        """,
    )
    instance = cluster.instances[0]
    # Whether one burst overlaps depends on the machine's load, so burst
    # again until one has left a second Faaslet in the pool.
    for _ in range(10):
        ids = [cluster.dispatch("fn") for _ in range(6)]
        for cid in ids:
            cluster.calls.wait(cid, 30)
        if instance.warm_count("fn") >= 2:
            break
    assert instance.warm_count("fn") >= 2
    instance.reclaim_idle(keep_per_function=1)
    assert instance.warm_count("fn") == 1
    # Still advertised warm: the pool is non-empty.
    assert cluster.warm_sets.warm_hosts("fn") == {"host-0"}


def test_call_after_reclaim_cold_starts_again():
    cluster = FaasmCluster(n_hosts=1)
    cluster.upload("fn", SRC)
    cluster.invoke("fn")
    instance = cluster.instances[0]
    cold_before = instance.metrics.cold_starts
    instance.reclaim_idle()
    assert cluster.invoke("fn")[0] == 0
    assert instance.metrics.cold_starts == cold_before + 1


def test_reclaim_shrinks_memory_footprint():
    cluster = FaasmCluster(n_hosts=1, capacity=16)
    cluster.upload("fn", SRC)
    ids = [cluster.dispatch("fn") for _ in range(8)]
    for cid in ids:
        cluster.calls.wait(cid, 30)
    instance = cluster.instances[0]
    before = instance.memory_footprint()
    instance.reclaim_idle()
    assert instance.memory_footprint() <= before


def test_reclaim_idempotent_on_empty_pool():
    cluster = FaasmCluster(n_hosts=1)
    assert cluster.instances[0].reclaim_idle() == 0


def test_reclaimed_faaslets_are_freed_without_the_cycle_collector():
    """Scale-to-zero returns memory when it happens: a Faaslet, its instance
    and its bound host functions refer to each other, so a reclaim that only
    forgot them left every one alive — materialised pages and all — until
    the cycle collector's next pass. Collector off, nothing may survive."""
    cluster = FaasmCluster(n_hosts=1)
    instance = cluster.instances[0]
    refs = []

    def call_and_track():
        assert cluster.invoke("fn", b"\x07\x00\x00\x00")[0] == 0
        wait_for(lambda: instance.warm_count("fn") == 1)  # released
        refs.extend(weakref.ref(f) for f in instance._warm["fn"])
        refs.extend(weakref.ref(f.instance.memory) for f in instance._warm["fn"])

    try:
        cluster.upload(
            "fn",
            """
            extern int read_call_input(int buf, int len);
            global int table = 0;
            export void init() { int[] t = new int[20000]; t[7] = 1; table = ptr(t); }
            export int main() {
                int[] in = new int[1];
                read_call_input(ptr(in), 4);
                int[] t = iarr(table);
                t[in[0]] = t[in[0]] + 1;
                return 0;
            }
            """,
            init="init",
        )
        gc.collect()
        gc.disable()
        for _ in range(20):
            call_and_track()
            assert instance.reclaim_idle() == 1
        call_and_track()
        dead = {f.name for f in instance._warm["fn"]}
        instance.kill()
        instance.restart()  # the dead life's idle Faaslets go the same way
        # ... and leave the host's cgroup, or the period stays split
        # among members that will never run again.
        assert not dead & instance.cgroup.usage().keys()
        assert len(refs) == 42
        # The worker that ran a call may still be unwinding its frame.
        wait_for(lambda: not any(ref() is not None for ref in refs), timeout=5.0)
    finally:
        gc.enable()
        cluster.shutdown()
