"""Differential coverage of the vector ISA and shared-memory atomics.

Every v128 lane op and every atomic op runs on both execution tiers and
must be observationally identical — results, traps, final memory, fuel
and instruction counts. The struct SIMD kernels are also cross-checked
against the NumPy reference kernels on random lane bytes.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.wasm import (
    Trap,
    UnalignedAtomicAccess,
    canon_v128,
    f64x2,
    f64x2_lanes,
    i32x4,
    i32x4_lanes,
    instantiate,
    parse_module,
    v128_to_int,
)
from repro.wasm.instructions import (
    ATOMIC_CMPXCHG_OPS,
    ATOMIC_RMW_OPS,
    SIMD_LANE_IMM_OPS,
)
from repro.wasm.simd import (
    SIMD_BINOPS,
    SIMD_EXTRACT_OPS,
    SIMD_REPLACE_OPS,
    SIMD_UNOPS,
)
from tests.wasm import simd_reference

TIERS = ("interp", "compiled")


def _hex(v: bytes) -> str:
    return f"0x{v128_to_int(v):032x}"


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
# SIMD lane ops
# ----------------------------------------------------------------------

_A_I = i32x4(1, 0xFFFF_FFFF, 7, 0x8000_0000)
_B_I = i32x4(3, 2, 0xFFFF_FFF9, 1)
_A_F = f64x2(1.5, -2.25)
_B_F = f64x2(-0.5, 1e16)


@pytest.mark.parametrize("op", sorted(SIMD_BINOPS))
def test_simd_binop_tiers_agree(op):
    a, b = (_A_I, _B_I) if op.startswith("i32x4") else (_A_F, _B_F)
    src = f"""
    (module
      (memory 1)
      (func (export "run")
        (v128.store (i32.const 16)
          ({op} (v128.const {_hex(a)}) (v128.const {_hex(b)})))))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("ok", None)
    assert obs["memory"][16:32] == SIMD_BINOPS[op](a, b)


@pytest.mark.parametrize("op", ["i32x4.neg", "f64x2.neg"])
def test_simd_neg_tiers_agree(op):
    a = _A_I if op.startswith("i32x4") else _A_F
    src = f"""
    (module
      (memory 1)
      (func (export "run")
        (v128.store (i32.const 0) ({op} (v128.const {_hex(a)})))))
    """
    obs = _observe(src, "run")
    assert obs["memory"][0:16] == SIMD_UNOPS[op](a)


@pytest.mark.parametrize("op", ["i32x4.splat", "f64x2.splat"])
def test_simd_splat_tiers_agree(op):
    is_int = op.startswith("i32x4")
    const = "(i32.const -2)" if is_int else "(f64.const 2.5)"
    src = f"""
    (module
      (memory 1)
      (func (export "run")
        (v128.store (i32.const 0) ({op} {const}))))
    """
    obs = _observe(src, "run")
    assert obs["memory"][0:16] == SIMD_UNOPS[op](-2 & 0xFFFF_FFFF if is_int else 2.5)


@pytest.mark.parametrize("op,lanes", sorted(SIMD_LANE_IMM_OPS.items()))
def test_simd_lane_ops_tiers_agree(op, lanes):
    vec = _A_I if op.startswith("i32x4") else _A_F
    for lane in range(lanes):
        if "extract" in op:
            result_ty = "i32" if op.startswith("i32x4") else "f64"
            src = f"""
            (module
              (memory 1)
              (func (export "run") (result {result_ty})
                ({op} {lane} (v128.const {_hex(vec)}))))
            """
            obs = _observe(src, "run")
            got = obs["outcome"][1]
            if op.startswith("i32x4"):
                expected = i32x4_lanes(vec)[lane]
                assert got % (1 << 32) == expected % (1 << 32)
            else:
                expected = f64x2_lanes(vec)[lane]
                assert got == expected or (got != got and expected != expected)
        else:
            scalar = "(i32.const 99)" if op.startswith("i32x4") else "(f64.const 9.5)"
            src = f"""
            (module
              (memory 1)
              (func (export "run")
                (v128.store (i32.const 0)
                  ({op} {lane} (v128.const {_hex(vec)}) {scalar}))))
            """
            obs = _observe(src, "run")
            lanes_out = (
                list(i32x4_lanes(obs["memory"][0:16]))
                if op.startswith("i32x4")
                else list(f64x2_lanes(obs["memory"][0:16]))
            )
            assert lanes_out[lane] == (99 if op.startswith("i32x4") else 9.5)


def test_v128_load_store_roundtrip():
    src = f"""
    (module
      (memory 1)
      (func (export "run")
        (v128.store (i32.const 32) (v128.const {_hex(_A_I)}))
        (v128.store (i32.const 48) (v128.load (i32.const 32)))))
    """
    obs = _observe(src, "run")
    assert obs["memory"][32:48] == obs["memory"][48:64] == _A_I


def test_v128_load_out_of_bounds_traps_identically():
    src = """
    (module
      (memory 1)
      (func (export "run")
        (v128.store (i32.const 0) (v128.load (i32.const 65528)))))
    """
    obs = _observe(src, "run")
    assert obs["outcome"] == ("trap", "OutOfBoundsMemoryAccess")


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


def test_fuel_sweep_over_simd_atomic_program():
    """Every fuel cutoff leaves both tiers in identical states, including
    mid-program exhaustion inside SIMD and atomic sequences."""
    src = f"""
    (module
      (memory 1)
      (func (export "run") (result i32)
        (v128.store (i32.const 0)
          (i32x4.add (v128.const {_hex(_A_I)}) (v128.const {_hex(_B_I)})))
        (drop (i32.atomic.rmw.add (i32.const 0) (i32.const 3)))
        (drop (memory.atomic.wait32 (i32.const 0) (i32.const 0)))
        (i32x4.extract_lane 0 (v128.load (i32.const 0)))))
    """
    baseline = None
    for tier in TIERS:
        inst = instantiate(parse_module(src), tier=tier)
        inst.invoke("run")
        baseline = inst.instructions_executed
    for fuel in range(baseline + 2):
        _observe(src, "run", fuel=fuel)


# ----------------------------------------------------------------------
# Kernel agreement (struct kernels vs the NumPy reference)
# ----------------------------------------------------------------------


def test_reference_covers_every_kernel():
    """Same mnemonics on both sides, and the two tables share no kernel —
    the comparison below can never be a table against itself."""
    for ours, reference in (
        (SIMD_BINOPS, simd_reference.BINOPS),
        (SIMD_UNOPS, simd_reference.UNOPS),
        (SIMD_EXTRACT_OPS, simd_reference.EXTRACT_OPS),
        (SIMD_REPLACE_OPS, simd_reference.REPLACE_OPS),
    ):
        assert set(ours) == set(reference)
        assert not set(ours.values()) & set(reference.values())


_v128_bytes = st.binary(min_size=16, max_size=16)


def _canon_bytes(v: bytes) -> bytes:
    """Collapse NaN payloads so kernels only need semantic agreement."""
    lanes = []
    for x in struct.unpack("<2d", v):
        lanes.append(float("nan") if x != x else x)
    return struct.pack("<2d", *lanes)


@given(_v128_bytes, _v128_bytes)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_simd_backends_agree_on_binops(a, b):
    a, b = canon_v128(a), canon_v128(b)
    for op, kernel in SIMD_BINOPS.items():
        got = kernel(a, b)
        want = simd_reference.BINOPS[op](a, b)
        if got != want and op.startswith("f64x2"):
            got, want = _canon_bytes(got), _canon_bytes(want)
        assert got == want, op


@given(_v128_bytes)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_simd_backends_agree_on_lane_ops(v):
    v = canon_v128(v)
    for op, kernel in simd_reference.EXTRACT_OPS.items():
        lanes = SIMD_LANE_IMM_OPS[op]
        for lane in range(lanes):
            got = SIMD_EXTRACT_OPS[op](v, lane)
            want = kernel(v, lane)
            assert got == want or (got != got and want != want), op
    for op, kernel in simd_reference.REPLACE_OPS.items():
        lanes = SIMD_LANE_IMM_OPS[op]
        value = 123 if op.startswith("i32x4") else -7.5
        for lane in range(lanes):
            assert SIMD_REPLACE_OPS[op](v, value, lane) == kernel(v, value, lane), op


@given(st.integers(-(2**31), 2**31 - 1), st.floats(allow_nan=False, width=64))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_simd_backends_agree_on_splat_neg(x, f):
    for op, arg in (("i32x4.splat", x), ("f64x2.splat", f)):
        assert SIMD_UNOPS[op](arg) == simd_reference.UNOPS[op](arg), op
    vi, vf = SIMD_UNOPS["i32x4.splat"](x), SIMD_UNOPS["f64x2.splat"](f)
    assert SIMD_UNOPS["i32x4.neg"](vi) == simd_reference.UNOPS["i32x4.neg"](vi)
    assert SIMD_UNOPS["f64x2.neg"](vf) == simd_reference.UNOPS["f64x2.neg"](vf)
