"""Operator tables: exact numeric semantics for every arithmetic opcode.

The interpreter dispatches binary and unary operators through these tables;
each entry takes canonical stack values (unsigned ints / Python floats) and
returns a canonical value, trapping where the spec traps.
"""

from __future__ import annotations

import math

from . import values as v
from .values import MASK32, MASK64, to_f32, to_signed32, to_signed64


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)
    return a / b


def _b(x: bool) -> int:
    return 1 if x else 0


def _int_binops(bits: int) -> dict[str, callable]:
    mask = MASK32 if bits == 32 else MASK64
    signed = to_signed32 if bits == 32 else to_signed64
    return {
        "add": lambda a, b: (a + b) & mask,
        "sub": lambda a, b: (a - b) & mask,
        "mul": lambda a, b: (a * b) & mask,
        "div_s": lambda a, b: v.div_s(a, b, bits),
        "div_u": lambda a, b: v.div_u(a, b, bits),
        "rem_s": lambda a, b: v.rem_s(a, b, bits),
        "rem_u": lambda a, b: v.rem_u(a, b, bits),
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "shl": lambda a, b: v.shl(a, b, bits),
        "shr_s": lambda a, b: v.shr_s(a, b, bits),
        "shr_u": lambda a, b: v.shr_u(a, b, bits),
        "rotl": lambda a, b: v.rotl(a, b, bits),
        "rotr": lambda a, b: v.rotr(a, b, bits),
        "eq": lambda a, b: _b(a == b),
        "ne": lambda a, b: _b(a != b),
        "lt_s": lambda a, b: _b(signed(a) < signed(b)),
        "lt_u": lambda a, b: _b(a < b),
        "gt_s": lambda a, b: _b(signed(a) > signed(b)),
        "gt_u": lambda a, b: _b(a > b),
        "le_s": lambda a, b: _b(signed(a) <= signed(b)),
        "le_u": lambda a, b: _b(a <= b),
        "ge_s": lambda a, b: _b(signed(a) >= signed(b)),
        "ge_u": lambda a, b: _b(a >= b),
    }


def _int_unops(bits: int) -> dict[str, callable]:
    return {
        "clz": lambda a: v.clz(a, bits),
        "ctz": lambda a: v.ctz(a, bits),
        "popcnt": lambda a: v.popcnt(a, bits),
        "eqz": lambda a: _b(a == 0),
    }


def _float_binops(single: bool) -> dict[str, callable]:
    rnd = to_f32 if single else (lambda x: x)
    return {
        "add": lambda a, b: rnd(a + b),
        "sub": lambda a, b: rnd(a - b),
        "mul": lambda a, b: rnd(a * b),
        "div": lambda a, b: rnd(_fdiv(a, b)),
        "min": lambda a, b: rnd(v.float_min(a, b)),
        "max": lambda a, b: rnd(v.float_max(a, b)),
        "copysign": lambda a, b: math.copysign(a, b),
        "eq": lambda a, b: _b(a == b),
        "ne": lambda a, b: _b(a != b),
        "lt": lambda a, b: _b(a < b),
        "gt": lambda a, b: _b(a > b),
        "le": lambda a, b: _b(a <= b),
        "ge": lambda a, b: _b(a >= b),
    }


def _fsqrt(a: float) -> float:
    if a < 0.0:
        return math.nan
    return math.sqrt(a)


def _float_unops(single: bool) -> dict[str, callable]:
    rnd = to_f32 if single else (lambda x: x)

    def guard_inf(fn):
        def wrapped(a: float) -> float:
            if math.isnan(a) or math.isinf(a):
                return a
            return rnd(fn(a))

        return wrapped

    return {
        "abs": lambda a: abs(a),
        "neg": lambda a: -a,
        "sqrt": lambda a: rnd(_fsqrt(a)),
        "ceil": guard_inf(lambda a: float(math.ceil(a))),
        "floor": guard_inf(lambda a: float(math.floor(a))),
        "trunc": guard_inf(lambda a: float(math.trunc(a))),
        "nearest": lambda a: v.nearest(a),
    }


BINOPS: dict[str, callable] = {}
UNOPS: dict[str, callable] = {}

for _prefix, _bits in (("i32", 32), ("i64", 64)):
    for _name, _fn in _int_binops(_bits).items():
        BINOPS[f"{_prefix}.{_name}"] = _fn
    for _name, _fn in _int_unops(_bits).items():
        UNOPS[f"{_prefix}.{_name}"] = _fn

for _prefix, _single in (("f32", True), ("f64", False)):
    for _name, _fn in _float_binops(_single).items():
        BINOPS[f"{_prefix}.{_name}"] = _fn
    for _name, _fn in _float_unops(_single).items():
        UNOPS[f"{_prefix}.{_name}"] = _fn

# Conversions (all unary).
UNOPS.update(
    {
        "i32.wrap_i64": lambda a: a & MASK32,
        "i64.extend_i32_s": lambda a: to_signed32(a) & MASK64,
        "i64.extend_i32_u": lambda a: a & MASK32,
        "f32.convert_i32_s": lambda a: to_f32(float(to_signed32(a))),
        "f32.convert_i32_u": lambda a: to_f32(float(a & MASK32)),
        "f32.convert_i64_s": lambda a: to_f32(float(to_signed64(a))),
        "f32.convert_i64_u": lambda a: to_f32(float(a & MASK64)),
        "f64.convert_i32_s": lambda a: float(to_signed32(a)),
        "f64.convert_i32_u": lambda a: float(a & MASK32),
        "f64.convert_i64_s": lambda a: float(to_signed64(a)),
        "f64.convert_i64_u": lambda a: float(a & MASK64),
        "i32.trunc_f32_s": lambda a: v.trunc_to_int(a, 32, True),
        "i32.trunc_f32_u": lambda a: v.trunc_to_int(a, 32, False),
        "i32.trunc_f64_s": lambda a: v.trunc_to_int(a, 32, True),
        "i32.trunc_f64_u": lambda a: v.trunc_to_int(a, 32, False),
        "i64.trunc_f32_s": lambda a: v.trunc_to_int(a, 64, True),
        "i64.trunc_f32_u": lambda a: v.trunc_to_int(a, 64, False),
        "i64.trunc_f64_s": lambda a: v.trunc_to_int(a, 64, True),
        "i64.trunc_f64_u": lambda a: v.trunc_to_int(a, 64, False),
        "f32.demote_f64": lambda a: to_f32(a),
        "f64.promote_f32": lambda a: a,
        "i32.reinterpret_f32": v.reinterpret_f32_as_i32,
        "f32.reinterpret_i32": v.reinterpret_i32_as_f32,
        "i64.reinterpret_f64": v.reinterpret_f64_as_i64,
        "f64.reinterpret_i64": v.reinterpret_i64_as_f64,
    }
)

# Vector lane kernels (i32x4/f64x2 over 16-byte v128 values), defined in
# repro.wasm.simd; registering them here lets both execution tiers dispatch
# SIMD exactly like scalar operators.
from .simd import SIMD_BINOPS as _SIMD_BINOPS  # noqa: E402
from .simd import SIMD_UNOPS as _SIMD_UNOPS  # noqa: E402

BINOPS.update(_SIMD_BINOPS)
UNOPS.update(_SIMD_UNOPS)
