"""Guest threads: fork-join scheduling, futexes, traps and accounting.

Exercises the intra-Faaslet parallelism surface end to end: spawning
guest threads over shared linear memory, the rotation scheduler's
virtual-time model, futex wait/notify, deadlock detection, and the
interactions with snapshots and metrics. Everything runs on both
execution tiers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faaslet import Faaslet, FunctionDefinition, ProtoFaaslet
from repro.faaslet.snapshot import SnapshotError
from repro.faaslet.threads import (
    GuestThreadDeadlock,
    GuestThreadError,
    GuestThreadRuntime,
)
from repro.host import StandaloneEnvironment
from repro.telemetry.metrics import MetricsRegistry
from repro.wasm import Trap, parse_module

TIERS = ("interp", "compiled")

_IMPORTS = """
  (import "env" "thread_spawn" (func $spawn (param i32 i32) (result i32)))
  (import "env" "thread_join" (func $join (param i32) (result i32)))
"""


def make_faaslet(src: str, tier: str, metrics=None) -> Faaslet:
    module = parse_module(src)
    faaslet = Faaslet(
        FunctionDefinition.build("threads", module, entry="run"),
        StandaloneEnvironment(),
        tier=tier,
    )
    if metrics is not None:
        GuestThreadRuntime(faaslet.instance, metrics=metrics)
        faaslet._thread_runtime = faaslet.instance._thread_runtime
    return faaslet


def _counter_src(nthreads: int, increments: int) -> str:
    """N workers each atomically bump a shared counter ``increments``
    times; run() joins them all and loads the final value."""
    spawns = "\n".join(
        f"(local.set $t{i} (call $spawn (i32.const 0) (i32.const {i})))"
        for i in range(nthreads)
    )
    joins = "\n".join(
        f"(drop (call $join (local.get $t{i})))" for i in range(nthreads)
    )
    locals_ = " ".join(f"(local $t{i} i32)" for i in range(nthreads))
    return f"""
    (module
      {_IMPORTS}
      (memory 1)
      (table 1 funcref)
      (elem (i32.const 0) $worker)
      (func $worker (param $arg i32)
        (local $n i32)
        (local.set $n (i32.const {increments}))
        (block
          (loop
            (br_if 1 (i32.eqz (local.get $n)))
            (drop (i32.atomic.rmw.add (i32.const 0) (i32.const 1)))
            (local.set $n (i32.sub (local.get $n) (i32.const 1)))
            (br 0))))
      (func (export "run") (result i32)
        {locals_}
        {spawns}
        {joins}
        (i32.atomic.load (i32.const 0))))
    """


# ----------------------------------------------------------------------
# Fork-join basics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tier", TIERS)
def test_spawn_join_counts_atomically(tier):
    faaslet = make_faaslet(_counter_src(4, 500), tier)
    assert faaslet.invoke_export("run") == 2000
    stats = faaslet.thread_runtime.stats()
    assert stats["threads_spawned"] == 4
    assert stats["total_fuel"] > 0


@pytest.mark.parametrize("tier", TIERS)
def test_exit_code_returned_from_join(tier):
    src = f"""
    (module
      {_IMPORTS}
      (table 1 funcref)
      (elem (i32.const 0) $worker)
      (func $worker (param $arg i32) (result i32)
        (i32.mul (local.get $arg) (i32.const 3)))
      (func (export "run") (result i32)
        (call $join (call $spawn (i32.const 0) (i32.const 14)))))
    """
    assert make_faaslet(src, tier).invoke_export("run") == 42


@pytest.mark.parametrize("tier", TIERS)
def test_worker_trap_reraises_in_parent(tier):
    src = f"""
    (module
      {_IMPORTS}
      (table 1 funcref)
      (elem (i32.const 0) $worker)
      (func $worker (param $arg i32) unreachable)
      (func (export "run") (result i32)
        (call $join (call $spawn (i32.const 0) (i32.const 0)))))
    """
    with pytest.raises(Trap):
        make_faaslet(src, tier).invoke_export("run")


def test_tiers_agree_on_thread_stats():
    per_tier = {}
    for tier in TIERS:
        faaslet = make_faaslet(_counter_src(3, 200), tier)
        result = faaslet.invoke_export("run")
        per_tier[tier] = (result, faaslet.thread_runtime.stats())
    assert per_tier["interp"] == per_tier["compiled"]


def test_preempted_workers_stay_on_compiled_code():
    """A worker preempted at a dozen quantum boundaries re-enters compiled
    code after each: only the superblock a boundary cuts goes through the
    interpreter loop, and every account the scheduler keeps is unchanged."""
    per_tier = {}
    for tier in TIERS:
        faaslet = make_faaslet(_counter_src(2, 40_000), tier)
        result = faaslet.invoke_export("run")
        runtime, inst = faaslet.thread_runtime, faaslet.instance
        quantum = runtime.cgroup.period_fuel // 2
        assert all(t.fuel_used >= 10 * quantum for t in runtime.threads.values())
        share = inst.metered_instructions / inst.instructions_executed
        assert share == 0 if tier == "interp" else 0 < share < 0.05
        per_tier[tier] = (result, runtime.stats(), inst.instructions_executed)
    assert per_tier["interp"] == per_tier["compiled"]
    assert per_tier["compiled"][0] == 80_000


@pytest.mark.parametrize("tier", TIERS)
def test_modeled_speedup_tracks_thread_count(tier):
    """Four equal workers behave like a 4-core region under the
    virtual-time model: serial fuel ~4x the modeled parallel fuel."""
    faaslet = make_faaslet(_counter_src(4, 1000), tier)
    faaslet.invoke_export("run")
    stats = faaslet.thread_runtime.stats()
    assert stats["modeled_speedup"] == pytest.approx(4.0, rel=0.15)
    assert stats["virtual_fuel"] < stats["total_fuel"]


# ----------------------------------------------------------------------
# Spawn validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("elem_index", [5, -1])
def test_spawn_bad_table_index_traps(tier, elem_index):
    faaslet = make_faaslet(_counter_src(1, 1), tier)
    with pytest.raises(GuestThreadError):
        faaslet.thread_spawn(elem_index, 0)


@pytest.mark.parametrize("tier", TIERS)
def test_spawn_wrong_signature_traps(tier):
    src = f"""
    (module
      {_IMPORTS}
      (table 1 funcref)
      (elem (i32.const 0) $bad)
      (func $bad (param i32) (param i32))
      (func (export "run") (result i32)
        (call $spawn (i32.const 0) (i32.const 0))))
    """
    with pytest.raises(GuestThreadError):
        make_faaslet(src, tier).invoke_export("run")


@pytest.mark.parametrize("tier", TIERS)
def test_nested_spawn_traps(tier):
    src = f"""
    (module
      {_IMPORTS}
      (table 1 funcref)
      (elem (i32.const 0) $worker)
      (func $worker (param $arg i32)
        (drop (call $spawn (i32.const 0) (i32.const 0))))
      (func (export "run") (result i32)
        (call $join (call $spawn (i32.const 0) (i32.const 0)))))
    """
    with pytest.raises(GuestThreadError, match="nested"):
        make_faaslet(src, tier).invoke_export("run")


@pytest.mark.parametrize("tier", TIERS)
def test_join_unknown_tid_traps(tier):
    faaslet = make_faaslet(_counter_src(1, 1), tier)
    with pytest.raises(GuestThreadError):
        faaslet.thread_join(999_999)


# ----------------------------------------------------------------------
# Futex wait/notify and deadlock
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tier", TIERS)
def test_futex_handoff_between_threads(tier):
    """Thread 0 parks on a futex; thread 1 flips the word and notifies.
    The waiter must observe WOKEN (0) and the final memory value 1."""
    src = f"""
    (module
      {_IMPORTS}
      (memory 1)
      (table 2 funcref)
      (elem (i32.const 0) $waiter $waker)
      (func $waiter (param $arg i32) (result i32)
        (memory.atomic.wait32 (i32.const 0) (i32.const 0)))
      (func $waker (param $arg i32) (result i32)
        (i32.atomic.store (i32.const 0) (i32.const 1))
        (memory.atomic.notify (i32.const 0) (i32.const 1)))
      (func (export "run") (result i32)
        (local $w i32) (local $k i32)
        (local.set $w (call $spawn (i32.const 0) (i32.const 0)))
        (local.set $k (call $spawn (i32.const 1) (i32.const 0)))
        ;; 100 * wait-result + 10 * notified-count + memory word
        (i32.add
          (i32.add
            (i32.mul (i32.const 100) (call $join (local.get $w)))
            (i32.mul (i32.const 10) (call $join (local.get $k))))
          (i32.atomic.load (i32.const 0)))))
    """
    faaslet = make_faaslet(src, tier)
    # wait returns 0 (woken), notify returns 1 (one waiter), memory is 1.
    assert faaslet.invoke_export("run") == 11


@pytest.mark.parametrize("tier", TIERS)
def test_all_threads_waiting_is_a_deadlock_trap(tier):
    src = f"""
    (module
      {_IMPORTS}
      (memory 1)
      (table 1 funcref)
      (elem (i32.const 0) $waiter)
      (func $waiter (param $arg i32)
        (drop (memory.atomic.wait32 (i32.const 0) (i32.const 0))))
      (func (export "run") (result i32)
        (call $join (call $spawn (i32.const 0) (i32.const 0)))))
    """
    faaslet = make_faaslet(src, tier)
    with pytest.raises(GuestThreadDeadlock):
        faaslet.invoke_export("run")
    # The runtime must be reusable after tripping a deadlock.
    assert faaslet.thread_runtime.live_threads == 0


# ----------------------------------------------------------------------
# Integration: snapshots and metrics
# ----------------------------------------------------------------------


def test_snapshot_refused_while_threads_live():
    faaslet = make_faaslet(_counter_src(1, 10), "interp")
    faaslet.thread_runtime  # install
    tid = faaslet.thread_spawn(0, 0)
    assert faaslet.thread_runtime.live_threads == 1
    with pytest.raises(SnapshotError, match="live guest threads"):
        ProtoFaaslet.capture_from(faaslet)
    faaslet.thread_join(tid)
    assert faaslet.thread_runtime.live_threads == 0
    ProtoFaaslet.capture_from(faaslet)  # fine once the region is over


def test_thread_metrics_counters():
    metrics = MetricsRegistry()
    src = f"""
    (module
      {_IMPORTS}
      (memory 1)
      (table 2 funcref)
      (elem (i32.const 0) $waiter $waker)
      (func $waiter (param $arg i32) (result i32)
        (memory.atomic.wait32 (i32.const 0) (i32.const 0)))
      (func $waker (param $arg i32) (result i32)
        (i32.atomic.store (i32.const 0) (i32.const 1))
        (memory.atomic.notify (i32.const 0) (i32.const 1)))
      (func (export "run") (result i32)
        (local $w i32) (local $k i32)
        (local.set $w (call $spawn (i32.const 0) (i32.const 0)))
        (local.set $k (call $spawn (i32.const 1) (i32.const 0)))
        (drop (call $join (local.get $w)))
        (call $join (local.get $k))))
    """
    faaslet = make_faaslet(src, "interp", metrics=metrics)
    faaslet.invoke_export("run")
    assert metrics.counter("thread.spawned").value == 2
    assert metrics.counter("atomic.waits").value == 1


# ----------------------------------------------------------------------
# Linearizability (hypothesis)
# ----------------------------------------------------------------------


@given(
    nthreads=st.integers(min_value=1, max_value=6),
    increments=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=20, deadline=None)
def test_concurrent_rmw_add_linearizes(nthreads, increments):
    """No increment is ever lost: N threads x K atomic adds always sum to
    exactly N*K regardless of interleaving, on both tiers."""
    for tier in TIERS:
        faaslet = make_faaslet(_counter_src(nthreads, increments), tier)
        assert faaslet.invoke_export("run") == nthreads * increments
