"""Numeric value semantics for the virtual ISA.

Integers are stored on the operand stack as *unsigned* Python ints in
``[0, 2**N)``; signed operators reinterpret through two's complement. Floats
are Python floats, with f32 values rounded through single precision on every
producing operation, matching IEEE-754 binary32 behaviour closely enough for
the workloads we run.
"""

from __future__ import annotations

import math
import struct

from .errors import IntegerDivideByZero, IntegerOverflow, InvalidConversion

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_F32_STRUCT = struct.Struct("<f")
_F32_PACK = _F32_STRUCT.pack
_F32_UNPACK = _F32_STRUCT.unpack
_F64_STRUCT = struct.Struct("<d")
_I32_STRUCT = struct.Struct("<i")
_U32_STRUCT = struct.Struct("<I")
_I64_STRUCT = struct.Struct("<q")
_U64_STRUCT = struct.Struct("<Q")


def wrap32(value: int) -> int:
    """Wrap an integer into unsigned 32-bit range."""
    return value & MASK32


def wrap64(value: int) -> int:
    """Wrap an integer into unsigned 64-bit range."""
    return value & MASK64


def to_signed32(value: int) -> int:
    """Reinterpret an unsigned 32-bit value as signed."""
    value &= MASK32
    return value - 0x100000000 if value >= 0x80000000 else value


def to_signed64(value: int) -> int:
    """Reinterpret an unsigned 64-bit value as signed."""
    value &= MASK64
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


def to_f32(value: float) -> float:
    """Round a Python float through IEEE single precision.

    Values beyond float32 range demote to ±inf, as IEEE-754 prescribes
    (CPython's struct raises OverflowError instead of rounding).
    """
    try:
        return _F32_UNPACK(_F32_PACK(value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


def div_s(lhs: int, rhs: int, bits: int) -> int:
    """Signed integer division, truncating toward zero, with spec traps."""
    signed = to_signed32 if bits == 32 else to_signed64
    mask = MASK32 if bits == 32 else MASK64
    int_min = INT32_MIN if bits == 32 else INT64_MIN
    a, b = signed(lhs), signed(rhs)
    if b == 0:
        raise IntegerDivideByZero("integer divide by zero")
    if a == int_min and b == -1:
        raise IntegerOverflow("integer overflow in signed division")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q & mask


def div_u(lhs: int, rhs: int, bits: int) -> int:
    """Unsigned integer division."""
    mask = MASK32 if bits == 32 else MASK64
    if rhs == 0:
        raise IntegerDivideByZero("integer divide by zero")
    return ((lhs & mask) // (rhs & mask)) & mask


def rem_s(lhs: int, rhs: int, bits: int) -> int:
    """Signed remainder with the sign of the dividend (trap only on zero)."""
    signed = to_signed32 if bits == 32 else to_signed64
    mask = MASK32 if bits == 32 else MASK64
    a, b = signed(lhs), signed(rhs)
    if b == 0:
        raise IntegerDivideByZero("integer divide by zero")
    r = abs(a) % abs(b)
    if a < 0:
        r = -r
    return r & mask


def rem_u(lhs: int, rhs: int, bits: int) -> int:
    """Unsigned remainder."""
    mask = MASK32 if bits == 32 else MASK64
    if rhs == 0:
        raise IntegerDivideByZero("integer divide by zero")
    return ((lhs & mask) % (rhs & mask)) & mask


def shl(lhs: int, rhs: int, bits: int) -> int:
    """Shift left; the count is taken modulo the bit width."""
    mask = MASK32 if bits == 32 else MASK64
    return (lhs << (rhs % bits)) & mask


def shr_u(lhs: int, rhs: int, bits: int) -> int:
    """Logical (zero-filling) right shift, count modulo width."""
    mask = MASK32 if bits == 32 else MASK64
    return (lhs & mask) >> (rhs % bits)


def shr_s(lhs: int, rhs: int, bits: int) -> int:
    """Arithmetic (sign-preserving) right shift, count modulo width."""
    signed = to_signed32 if bits == 32 else to_signed64
    mask = MASK32 if bits == 32 else MASK64
    return (signed(lhs) >> (rhs % bits)) & mask


def rotl(lhs: int, rhs: int, bits: int) -> int:
    """Rotate left, count modulo width."""
    mask = MASK32 if bits == 32 else MASK64
    n = rhs % bits
    v = lhs & mask
    return ((v << n) | (v >> (bits - n))) & mask


def rotr(lhs: int, rhs: int, bits: int) -> int:
    """Rotate right, count modulo width."""
    mask = MASK32 if bits == 32 else MASK64
    n = rhs % bits
    v = lhs & mask
    return ((v >> n) | (v << (bits - n))) & mask


def clz(value: int, bits: int) -> int:
    """Count leading zero bits."""
    mask = MASK32 if bits == 32 else MASK64
    v = value & mask
    if v == 0:
        return bits
    return bits - v.bit_length()


def ctz(value: int, bits: int) -> int:
    """Count trailing zero bits."""
    mask = MASK32 if bits == 32 else MASK64
    v = value & mask
    if v == 0:
        return bits
    return (v & -v).bit_length() - 1


def popcnt(value: int, bits: int) -> int:
    """Count set bits."""
    mask = MASK32 if bits == 32 else MASK64
    return (value & mask).bit_count()


def trunc_to_int(value: float, bits: int, signed: bool) -> int:
    """Float-to-int truncation with the spec's trapping semantics."""
    if math.isnan(value):
        raise InvalidConversion("invalid conversion to integer: NaN")
    if math.isinf(value):
        raise IntegerOverflow("integer overflow in float truncation")
    truncated = math.trunc(value)
    if signed:
        lo = INT32_MIN if bits == 32 else INT64_MIN
        hi = INT32_MAX if bits == 32 else INT64_MAX
    else:
        lo = 0
        hi = MASK32 if bits == 32 else MASK64
    if truncated < lo or truncated > hi:
        raise IntegerOverflow("integer overflow in float truncation")
    mask = MASK32 if bits == 32 else MASK64
    return truncated & mask


def float_min(a: float, b: float) -> float:
    """IEEE-style min: NaN-propagating, -0 < +0."""
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def float_max(a: float, b: float) -> float:
    """IEEE-style max: NaN-propagating, +0 > -0."""
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def nearest(value: float) -> float:
    """Round to nearest, ties to even (Python's round does exactly this)."""
    if math.isnan(value) or math.isinf(value):
        return value
    return float(round(value))


def reinterpret_f32_as_i32(value: float) -> int:
    """Bit-cast an f32 to its u32 representation."""
    return _U32_STRUCT.unpack(_F32_PACK(value))[0]


def reinterpret_i32_as_f32(value: int) -> float:
    """Bit-cast a u32 to the f32 it encodes."""
    return _F32_UNPACK(_U32_STRUCT.pack(value & MASK32))[0]


def reinterpret_f64_as_i64(value: float) -> int:
    """Bit-cast an f64 to its u64 representation."""
    return _U64_STRUCT.unpack(_F64_STRUCT.pack(value))[0]


def reinterpret_i64_as_f64(value: int) -> float:
    """Bit-cast a u64 to the f64 it encodes."""
    return _F64_STRUCT.unpack(_U64_STRUCT.pack(value & MASK64))[0]


def default_value(valtype) -> int | float:
    """The zero value used to initialise locals and globals."""
    from .types import ValType

    return 0.0 if valtype in (ValType.F32, ValType.F64) else 0
