"""v128 lane kernels for the vector ISA.

A v128 value travels through the VM as an immutable 16-byte ``bytes``
string — interpretation-agnostic raw bits, exactly like the spec's v128.
Each lane-wise operator unpacks the bits under its shape (``i32x4`` or
``f64x2``), applies the scalar rule per lane, and repacks.

The kernels are precompiled :class:`struct.Struct` codecs plus scalar
Python arithmetic. At 16-byte width this beats NumPy ~3-4x:
``frombuffer``/``tobytes`` round-trip overhead dominates 2-4 lane math.
The NumPy kernels they were measured against live on as the reference in
``tests/wasm/simd_reference.py``; a property test pins the two
bit-identical on every op.
"""

from __future__ import annotations

import struct
from typing import Callable

from .values import V128_ZERO, float_max, float_min

_I32X4 = struct.Struct("<4I")
_F64X2 = struct.Struct("<2d")
_I32X4_S = struct.Struct("<4i")

_M32 = 0xFFFFFFFF
_S32 = 0x80000000

#: Lanes per shape, used by validation to bound lane immediates.
LANE_COUNTS = {"i32x4": 4, "f64x2": 2}


def canon_v128(value) -> bytes:
    """Canonicalise a v128 immediate to 16 little-endian bytes.

    Accepts ``bytes``/``bytearray`` of length 16 or a non-negative int
    below 2**128 (the text format spells v128 constants as one wide hex
    integer).
    """
    if isinstance(value, (bytes, bytearray)):
        if len(value) != 16:
            raise ValueError(f"v128 constant must be 16 bytes, got {len(value)}")
        return bytes(value)
    if isinstance(value, int):
        if not 0 <= value < (1 << 128):
            raise ValueError("v128 constant out of 128-bit range")
        return value.to_bytes(16, "little")
    raise ValueError(f"cannot canonicalise {type(value).__name__} as v128")


def v128_to_int(value: bytes) -> int:
    """The text-format spelling of a v128 constant: one 128-bit integer."""
    return int.from_bytes(value, "little")


def i32x4(*lanes: int) -> bytes:
    """Build a v128 from four i32 lane values (test/bench convenience)."""
    return _I32X4.pack(*(v & _M32 for v in lanes))


def f64x2(*lanes: float) -> bytes:
    """Build a v128 from two f64 lane values."""
    return _F64X2.pack(*lanes)


def i32x4_lanes(value: bytes) -> tuple[int, ...]:
    """Split a v128 into its four unsigned i32 lanes."""
    return _I32X4.unpack(value)


def f64x2_lanes(value: bytes) -> tuple[float, ...]:
    """Split a v128 into its two f64 lanes."""
    return _F64X2.unpack(value)


# ----------------------------------------------------------------------
# Lane kernels
# ----------------------------------------------------------------------


def _s_i32x4_add(a: bytes, b: bytes) -> bytes:
    a0, a1, a2, a3 = _I32X4.unpack(a)
    b0, b1, b2, b3 = _I32X4.unpack(b)
    return _I32X4.pack(
        (a0 + b0) & _M32, (a1 + b1) & _M32, (a2 + b2) & _M32, (a3 + b3) & _M32
    )


def _s_i32x4_sub(a: bytes, b: bytes) -> bytes:
    a0, a1, a2, a3 = _I32X4.unpack(a)
    b0, b1, b2, b3 = _I32X4.unpack(b)
    return _I32X4.pack(
        (a0 - b0) & _M32, (a1 - b1) & _M32, (a2 - b2) & _M32, (a3 - b3) & _M32
    )


def _s_i32x4_mul(a: bytes, b: bytes) -> bytes:
    a0, a1, a2, a3 = _I32X4.unpack(a)
    b0, b1, b2, b3 = _I32X4.unpack(b)
    return _I32X4.pack(
        (a0 * b0) & _M32, (a1 * b1) & _M32, (a2 * b2) & _M32, (a3 * b3) & _M32
    )


def _s_i32x4_min_s(a: bytes, b: bytes) -> bytes:
    a0, a1, a2, a3 = _I32X4_S.unpack(a)
    b0, b1, b2, b3 = _I32X4_S.unpack(b)
    return _I32X4_S.pack(min(a0, b0), min(a1, b1), min(a2, b2), min(a3, b3))


def _s_i32x4_max_s(a: bytes, b: bytes) -> bytes:
    a0, a1, a2, a3 = _I32X4_S.unpack(a)
    b0, b1, b2, b3 = _I32X4_S.unpack(b)
    return _I32X4_S.pack(max(a0, b0), max(a1, b1), max(a2, b2), max(a3, b3))


def _s_f64x2_add(a: bytes, b: bytes) -> bytes:
    a0, a1 = _F64X2.unpack(a)
    b0, b1 = _F64X2.unpack(b)
    return _F64X2.pack(a0 + b0, a1 + b1)


def _s_f64x2_sub(a: bytes, b: bytes) -> bytes:
    a0, a1 = _F64X2.unpack(a)
    b0, b1 = _F64X2.unpack(b)
    return _F64X2.pack(a0 - b0, a1 - b1)


def _s_f64x2_mul(a: bytes, b: bytes) -> bytes:
    a0, a1 = _F64X2.unpack(a)
    b0, b1 = _F64X2.unpack(b)
    return _F64X2.pack(a0 * b0, a1 * b1)


def _s_f64x2_min(a: bytes, b: bytes) -> bytes:
    a0, a1 = _F64X2.unpack(a)
    b0, b1 = _F64X2.unpack(b)
    return _F64X2.pack(float_min(a0, b0), float_min(a1, b1))


def _s_f64x2_max(a: bytes, b: bytes) -> bytes:
    a0, a1 = _F64X2.unpack(a)
    b0, b1 = _F64X2.unpack(b)
    return _F64X2.pack(float_max(a0, b0), float_max(a1, b1))


def _s_i32x4_splat(x: int) -> bytes:
    x &= _M32
    return _I32X4.pack(x, x, x, x)


def _s_f64x2_splat(x: float) -> bytes:
    return _F64X2.pack(x, x)


def _s_i32x4_neg(a: bytes) -> bytes:
    a0, a1, a2, a3 = _I32X4.unpack(a)
    return _I32X4.pack((-a0) & _M32, (-a1) & _M32, (-a2) & _M32, (-a3) & _M32)


def _s_f64x2_neg(a: bytes) -> bytes:
    a0, a1 = _F64X2.unpack(a)
    return _F64X2.pack(-a0, -a1)


def _s_i32x4_extract(v: bytes, lane: int) -> int:
    return _I32X4.unpack(v)[lane]


def _s_f64x2_extract(v: bytes, lane: int) -> float:
    return _F64X2.unpack(v)[lane]


def _s_i32x4_replace(v: bytes, x: int, lane: int) -> bytes:
    lanes = list(_I32X4.unpack(v))
    lanes[lane] = x & _M32
    return _I32X4.pack(*lanes)


def _s_f64x2_replace(v: bytes, x: float, lane: int) -> bytes:
    lanes = list(_F64X2.unpack(v))
    lanes[lane] = x
    return _F64X2.pack(*lanes)


SIMD_BINOPS: dict[str, Callable] = {
    "i32x4.add": _s_i32x4_add,
    "i32x4.sub": _s_i32x4_sub,
    "i32x4.mul": _s_i32x4_mul,
    "i32x4.min_s": _s_i32x4_min_s,
    "i32x4.max_s": _s_i32x4_max_s,
    "f64x2.add": _s_f64x2_add,
    "f64x2.sub": _s_f64x2_sub,
    "f64x2.mul": _s_f64x2_mul,
    "f64x2.min": _s_f64x2_min,
    "f64x2.max": _s_f64x2_max,
}

SIMD_UNOPS: dict[str, Callable] = {
    "i32x4.splat": _s_i32x4_splat,
    "f64x2.splat": _s_f64x2_splat,
    "i32x4.neg": _s_i32x4_neg,
    "f64x2.neg": _s_f64x2_neg,
}

SIMD_EXTRACT_OPS: dict[str, Callable] = {
    "i32x4.extract_lane": _s_i32x4_extract,
    "f64x2.extract_lane": _s_f64x2_extract,
}

SIMD_REPLACE_OPS: dict[str, Callable] = {
    "i32x4.replace_lane": _s_i32x4_replace,
    "f64x2.replace_lane": _s_f64x2_replace,
}


#: Every SIMD mnemonic, including the memory and const forms handled
#: elsewhere — used for profile roll-ups and the simd.ops metric.
SIMD_OPS = (
    frozenset(SIMD_BINOPS)
    | frozenset(SIMD_UNOPS)
    | frozenset(SIMD_EXTRACT_OPS)
    | frozenset(SIMD_REPLACE_OPS)
    | {"v128.const", "v128.load", "v128.store"}
)


__all__ = [
    "LANE_COUNTS",
    "SIMD_BINOPS",
    "SIMD_EXTRACT_OPS",
    "SIMD_OPS",
    "SIMD_REPLACE_OPS",
    "SIMD_UNOPS",
    "V128_ZERO",
    "canon_v128",
    "f64x2",
    "f64x2_lanes",
    "i32x4",
    "i32x4_lanes",
    "v128_to_int",
]
