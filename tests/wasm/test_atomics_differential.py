"""Differential coverage of the shared-memory atomics.

Every atomic op runs on both execution tiers and must be observationally
identical — results, traps, final memory, fuel and instruction counts.
"""

import pytest

from repro.wasm import (
    Trap,
    UnalignedAtomicAccess,
    instantiate,
    parse_module,
)
from repro.wasm.instructions import (
    ATOMIC_CMPXCHG_OPS,
    ATOMIC_RMW_OPS,
)

TIERS = ("interp", "compiled")


def _observe(src: str, entry: str, *args, fuel=None):
    """Run ``entry`` on both tiers; assert agreement; return the shared
    observation."""
    per_tier = {}
    for tier in TIERS:
        inst = instantiate(parse_module(src), fuel=fuel, tier=tier)
        try:
            outcome = ("ok", inst.invoke(entry, *args))
        except Trap as trap:
            outcome = ("trap", type(trap).__name__)
        per_tier[tier] = {
            "outcome": outcome,
            "memory": inst.memory.read(0, 256) if inst.memory else b"",
            "fuel": inst.fuel,
            "executed": inst.instructions_executed,
        }
    assert per_tier["compiled"] == per_tier["interp"]
    return per_tier["interp"]


# ----------------------------------------------------------------------
# Atomics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("op", sorted(ATOMIC_RMW_OPS))
def test_atomic_rmw_tiers_agree(op):
    ty, size, kind = ATOMIC_RMW_OPS[op]
    prefix = "i64" if size == 8 else "i32"
    initial, operand = 0x1D, 0x27
    src = f"""
    (module
      (memory 1)
      (func (export "run") (result {prefix})
        ({prefix}.atomic.store (i32.const 8) ({prefix}.const {initial}))
        ({op} (i32.const 8) ({prefix}.const {operand}))))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("ok", initial)  # rmw returns the old value
    expected = {
        "add": initial + operand, "sub": initial - operand,
        "and": initial & operand, "or": initial | operand,
        "xor": initial ^ operand, "xchg": operand,
    }[kind]
    got = int.from_bytes(obs["memory"][8 : 8 + size], "little")
    assert got == expected % (1 << (size * 8))


@pytest.mark.parametrize("op", sorted(ATOMIC_CMPXCHG_OPS))
@pytest.mark.parametrize("matches", [True, False])
def test_atomic_cmpxchg_tiers_agree(op, matches):
    _, size = ATOMIC_CMPXCHG_OPS[op]
    prefix = "i64" if size == 8 else "i32"
    initial, expected_arg, replacement = 5, (5 if matches else 6), 77
    src = f"""
    (module
      (memory 1)
      (func (export "run") (result {prefix})
        ({prefix}.atomic.store (i32.const 16) ({prefix}.const {initial}))
        ({op} (i32.const 16)
          ({prefix}.const {expected_arg}) ({prefix}.const {replacement}))))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("ok", initial)
    final = int.from_bytes(obs["memory"][16 : 16 + size], "little")
    assert final == (replacement if matches else initial)


@pytest.mark.parametrize("size,prefix", [(4, "i32"), (8, "i64")])
def test_atomic_load_store_tiers_agree(size, prefix):
    value = 0x0102_0304 if size == 4 else 0x0102_0304_0506_0708
    src = f"""
    (module
      (memory 1)
      (func (export "run") (result {prefix})
        ({prefix}.atomic.store (i32.const 24) ({prefix}.const {value}))
        ({prefix}.atomic.load (i32.const 24))))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("ok", value)


@pytest.mark.parametrize(
    "snippet",
    [
        "(drop (i32.atomic.load (i32.const 2)))",
        "(i32.atomic.store (i32.const 6) (i32.const 1))",
        "(drop (i64.atomic.rmw.add (i32.const 4) (i64.const 1)))",
        "(drop (i32.atomic.rmw.cmpxchg (i32.const 3) (i32.const 0) (i32.const 1)))",
        "(drop (memory.atomic.wait32 (i32.const 2) (i32.const 0)))",
        "(drop (memory.atomic.notify (i32.const 2) (i32.const 1)))",
    ],
)
def test_unaligned_atomic_traps_identically(snippet):
    src = f"""
    (module
      (memory 1)
      (func (export "run") {snippet}))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("trap", "UnalignedAtomicAccess")
    assert issubclass(UnalignedAtomicAccess, Trap)


@pytest.mark.parametrize(
    "address,trap",
    [
        # The sum is reduced lazily: alignment is tested on the raw value,
        # the trap carries the canonical address.
        ("(i32.add (i32.const 0xFFFFFFFF) (i32.const 7))", "UnalignedAtomicAccess"),
        ("(i32.add (i32.const 0xFFFFFFFF) (i32.const 9))", None),
        ("(i32.sub (i32.const 0) (i32.const 4))", "OutOfBoundsMemoryAccess"),
        # Unaligned and out of bounds: alignment is checked first.
        ("(i32.const 65538)", "UnalignedAtomicAccess"),
        ("(i32.const 65536)", "OutOfBoundsMemoryAccess"),
    ],
)
@pytest.mark.parametrize("store", [False, True])
def test_atomic_access_with_computed_address(address, trap, store):
    access = (
        f"(i32.atomic.store {address} (i32.const 5))" if store
        else f"(drop (i32.atomic.load {address}))"
    )
    src = f"""
    (module
      (memory 1)
      (func (export "run") {access}))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == (("trap", trap) if trap else ("ok", None))


def test_wait32_without_runtime_is_nonblocking():
    """Outside a guest-thread region wait32 can never block: it reports
    not-equal (1) on a mismatch and timed-out (2) when values match."""
    src = """
    (module
      (memory 1)
      (func (export "run") (result i32)
        (i32.atomic.store (i32.const 0) (i32.const 42))
        (i32.add
          (i32.mul (i32.const 10)
            (memory.atomic.wait32 (i32.const 0) (i32.const 41)))
          (memory.atomic.wait32 (i32.const 0) (i32.const 42)))))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("ok", 12)  # 10*not-equal + timed-out


def test_notify_without_waiters_returns_zero():
    src = """
    (module
      (memory 1)
      (func (export "run") (result i32)
        (memory.atomic.notify (i32.const 0) (i32.const 5))))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("ok", 0)


def test_fuel_sweep_over_atomic_program():
    """Every fuel cutoff leaves both tiers in identical states, including
    mid-program exhaustion inside a sequence of atomics."""
    src = """
    (module
      (memory 1)
      (func (export "run") (result i32)
        (i32.atomic.store (i32.const 0) (i32.const 7))
        (drop (i32.atomic.rmw.add (i32.const 0) (i32.const 3)))
        (drop (i64.atomic.rmw.cmpxchg (i32.const 8) (i64.const 0) (i64.const 5)))
        (drop (memory.atomic.wait32 (i32.const 0) (i32.const 0)))
        (drop (memory.atomic.notify (i32.const 0) (i32.const 1)))
        (i32.add (i32.atomic.load (i32.const 0))
                 (i32.wrap_i64 (i64.atomic.load (i32.const 8))))))
    """
    baseline = None
    for tier in TIERS:
        inst = instantiate(parse_module(src), tier=tier)
        assert inst.invoke("run") == 15
        baseline = inst.instructions_executed
    for fuel in range(baseline + 2):
        _observe(src, "run", fuel=fuel)
