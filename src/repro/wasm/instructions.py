"""Instruction set of the virtual ISA.

Instructions are represented as immutable :class:`Instr` nodes. Structured
control (``block``, ``loop``, ``if``) nests child instruction sequences
inside the node; the code-generation pass (:mod:`repro.wasm.codegen`)
flattens this into linear code with resolved branch targets, mirroring the
paper's trusted code-generation phase (§3.4).

The module also defines static typing metadata (:data:`INSTR_SIGS`) consumed
by the validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import F32, F64, I32, I64, ValType


@dataclass(frozen=True)
class Instr:
    """A single instruction: an opcode mnemonic plus immediate arguments."""

    op: str
    args: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.args:
            return self.op
        return f"{self.op} {' '.join(map(repr, self.args))}"


@dataclass(frozen=True)
class BlockType:
    """Result typing of a structured control block.

    Like post-MVP WebAssembly we allow parameters as well as results, which
    the minilang compiler uses for expression-carrying blocks.
    """

    params: tuple[ValType, ...] = ()
    results: tuple[ValType, ...] = ()


EMPTY_BLOCK = BlockType()


def _binops(prefix: str, ty: ValType, names: list[str]) -> dict:
    return {f"{prefix}.{n}": ((ty, ty), (ty,)) for n in names}


def _relops(prefix: str, ty: ValType, names: list[str]) -> dict:
    return {f"{prefix}.{n}": ((ty, ty), (I32,)) for n in names}


def _unops(prefix: str, ty: ValType, names: list[str]) -> dict:
    return {f"{prefix}.{n}": ((ty,), (ty,)) for n in names}


_INT_BIN = [
    "add", "sub", "mul", "div_s", "div_u", "rem_s", "rem_u",
    "and", "or", "xor", "shl", "shr_s", "shr_u", "rotl", "rotr",
]
_INT_REL = ["eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u", "ge_s", "ge_u"]
_INT_UN = ["clz", "ctz", "popcnt"]
_FLT_BIN = ["add", "sub", "mul", "div", "min", "max", "copysign"]
_FLT_REL = ["eq", "ne", "lt", "gt", "le", "ge"]
_FLT_UN = ["abs", "neg", "sqrt", "ceil", "floor", "trunc", "nearest"]

#: op -> ((pop types...), (push types...)) for monomorphic instructions.
INSTR_SIGS: dict[str, tuple[tuple[ValType, ...], tuple[ValType, ...]]] = {}
INSTR_SIGS.update(_binops("i32", I32, _INT_BIN))
INSTR_SIGS.update(_binops("i64", I64, _INT_BIN))
INSTR_SIGS.update(_relops("i32", I32, _INT_REL))
INSTR_SIGS.update(_relops("i64", I64, _INT_REL))
INSTR_SIGS.update(_unops("i32", I32, _INT_UN))
INSTR_SIGS.update(_unops("i64", I64, _INT_UN))
INSTR_SIGS.update(_binops("f32", F32, _FLT_BIN))
INSTR_SIGS.update(_binops("f64", F64, _FLT_BIN))
INSTR_SIGS.update(_relops("f32", F32, _FLT_REL))
INSTR_SIGS.update(_relops("f64", F64, _FLT_REL))
INSTR_SIGS.update(_unops("f32", F32, _FLT_UN))
INSTR_SIGS.update(_unops("f64", F64, _FLT_UN))
INSTR_SIGS.update(
    {
        "i32.eqz": ((I32,), (I32,)),
        "i64.eqz": ((I64,), (I32,)),
        # Conversions.
        "i32.wrap_i64": ((I64,), (I32,)),
        "i64.extend_i32_s": ((I32,), (I64,)),
        "i64.extend_i32_u": ((I32,), (I64,)),
        "f32.convert_i32_s": ((I32,), (F32,)),
        "f32.convert_i32_u": ((I32,), (F32,)),
        "f32.convert_i64_s": ((I64,), (F32,)),
        "f32.convert_i64_u": ((I64,), (F32,)),
        "f64.convert_i32_s": ((I32,), (F64,)),
        "f64.convert_i32_u": ((I32,), (F64,)),
        "f64.convert_i64_s": ((I64,), (F64,)),
        "f64.convert_i64_u": ((I64,), (F64,)),
        "i32.trunc_f32_s": ((F32,), (I32,)),
        "i32.trunc_f32_u": ((F32,), (I32,)),
        "i32.trunc_f64_s": ((F64,), (I32,)),
        "i32.trunc_f64_u": ((F64,), (I32,)),
        "i64.trunc_f32_s": ((F32,), (I64,)),
        "i64.trunc_f32_u": ((F32,), (I64,)),
        "i64.trunc_f64_s": ((F64,), (I64,)),
        "i64.trunc_f64_u": ((F64,), (I64,)),
        "f32.demote_f64": ((F64,), (F32,)),
        "f64.promote_f32": ((F32,), (F64,)),
        "i32.reinterpret_f32": ((F32,), (I32,)),
        "f32.reinterpret_i32": ((I32,), (F32,)),
        "i64.reinterpret_f64": ((F64,), (I64,)),
        "f64.reinterpret_i64": ((I64,), (F64,)),
        # Memory operators (address popped as i32; offset is an immediate).
        "i32.load": ((I32,), (I32,)),
        "i64.load": ((I32,), (I64,)),
        "f32.load": ((I32,), (F32,)),
        "f64.load": ((I32,), (F64,)),
        "i32.load8_s": ((I32,), (I32,)),
        "i32.load8_u": ((I32,), (I32,)),
        "i32.load16_s": ((I32,), (I32,)),
        "i32.load16_u": ((I32,), (I32,)),
        "i64.load32_s": ((I32,), (I64,)),
        "i64.load32_u": ((I32,), (I64,)),
        "i32.store": ((I32, I32), ()),
        "i64.store": ((I32, I64), ()),
        "f32.store": ((I32, F32), ()),
        "f64.store": ((I32, F64), ()),
        "i32.store8": ((I32, I32), ()),
        "i32.store16": ((I32, I32), ()),
        "i64.store32": ((I32, I64), ()),
        "memory.size": ((), (I32,)),
        "memory.grow": ((I32,), (I32,)),
        "nop": ((), ()),
    }
)

# -- shared-memory atomics ----------------------------------------------------

_RMW_KINDS = ["add", "sub", "and", "or", "xor", "xchg"]

#: Atomic read-modify-write: op -> (value type, access size, rmw kind).
ATOMIC_RMW_OPS: dict[str, tuple[ValType, int, str]] = {}
for _kind in _RMW_KINDS:
    ATOMIC_RMW_OPS[f"i32.atomic.rmw.{_kind}"] = (I32, 4, _kind)
    ATOMIC_RMW_OPS[f"i64.atomic.rmw.{_kind}"] = (I64, 8, _kind)

#: Atomic compare-exchange: op -> (value type, access size).
ATOMIC_CMPXCHG_OPS: dict[str, tuple[ValType, int]] = {
    "i32.atomic.rmw.cmpxchg": (I32, 4),
    "i64.atomic.rmw.cmpxchg": (I64, 8),
}

#: Futex-style ops over linear memory (offset immediate like loads).
ATOMIC_WAIT_NOTIFY_OPS: dict[str, tuple[int, int]] = {
    # op -> (access size, operand count besides the address)
    "memory.atomic.wait32": (4, 1),
    "memory.atomic.notify": (4, 1),
}

for _op, (_ty, _size, _kind) in ATOMIC_RMW_OPS.items():
    INSTR_SIGS[_op] = ((I32, _ty), (_ty,))
for _op, (_ty, _size) in ATOMIC_CMPXCHG_OPS.items():
    INSTR_SIGS[_op] = ((I32, _ty, _ty), (_ty,))
INSTR_SIGS["memory.atomic.wait32"] = ((I32, I32), (I32,))
INSTR_SIGS["memory.atomic.notify"] = ((I32, I32), (I32,))
INSTR_SIGS["i32.atomic.load"] = ((I32,), (I32,))
INSTR_SIGS["i64.atomic.load"] = ((I32,), (I64,))
INSTR_SIGS["i32.atomic.store"] = ((I32, I32), ())
INSTR_SIGS["i64.atomic.store"] = ((I32, I64), ())

#: (kind, size_bytes, signed) metadata for memory instructions.
LOAD_OPS: dict[str, tuple[ValType, int, bool]] = {
    "i32.load": (I32, 4, False),
    "i64.load": (I64, 8, False),
    "f32.load": (F32, 4, False),
    "f64.load": (F64, 8, False),
    "i32.load8_s": (I32, 1, True),
    "i32.load8_u": (I32, 1, False),
    "i32.load16_s": (I32, 2, True),
    "i32.load16_u": (I32, 2, False),
    "i64.load32_s": (I64, 4, True),
    "i64.load32_u": (I64, 4, False),
    "i32.atomic.load": (I32, 4, False),
    "i64.atomic.load": (I64, 8, False),
}

STORE_OPS: dict[str, tuple[ValType, int]] = {
    "i32.store": (I32, 4),
    "i64.store": (I64, 8),
    "f32.store": (F32, 4),
    "f64.store": (F64, 8),
    "i32.store8": (I32, 1),
    "i32.store16": (I32, 2),
    "i64.store32": (I64, 4),
    "i32.atomic.store": (I32, 4),
    "i64.atomic.store": (I64, 8),
}

CONST_OPS: dict[str, ValType] = {
    "i32.const": I32,
    "i64.const": I64,
    "f32.const": F32,
    "f64.const": F64,
}

#: Every atomic mnemonic (sequentially-consistent accesses; unaligned traps).
ATOMIC_OPS = (
    frozenset(ATOMIC_RMW_OPS)
    | frozenset(ATOMIC_CMPXCHG_OPS)
    | frozenset(ATOMIC_WAIT_NOTIFY_OPS)
    | {"i32.atomic.load", "i64.atomic.load", "i32.atomic.store", "i64.atomic.store"}
)

#: Ops that carry a static byte-offset immediate over linear memory.
MEMARG_OPS = (
    frozenset(LOAD_OPS)
    | frozenset(STORE_OPS)
    | frozenset(ATOMIC_RMW_OPS)
    | frozenset(ATOMIC_CMPXCHG_OPS)
    | frozenset(ATOMIC_WAIT_NOTIFY_OPS)
)

#: Instructions requiring bespoke validator handling.
CONTROL_OPS = {
    "block", "loop", "if", "br", "br_if", "br_table", "return",
    "call", "call_indirect", "unreachable",
    "drop", "select", "local.get", "local.set", "local.tee",
    "global.get", "global.set",
}

ALL_OPS = set(INSTR_SIGS) | set(CONST_OPS) | CONTROL_OPS

_CONTROL_FAMILY = frozenset(
    {"block", "loop", "if", "else", "end", "br", "br_if", "br_table",
     "return", "call", "call_indirect", "unreachable", "nop", "drop",
     "select"}
)


def op_family(op: str) -> str:
    """Coarse opcode family for dispatch-profile rollups.

    Families: ``atomic`` (rmw/cmpxchg/wait/notify and atomic accesses),
    ``memory`` (plain loads/stores, size/grow), ``var`` (locals/globals),
    ``const``, ``control`` and ``numeric`` (everything else: scalar
    arithmetic, comparisons, conversions).
    """
    if ".atomic." in op or op.startswith("memory.atomic."):
        return "atomic"
    if op.startswith(("local.", "global.")):
        return "var"
    if ".load" in op or ".store" in op or op in ("memory.size", "memory.grow"):
        return "memory"
    if op in CONST_OPS:
        return "const"
    if op in _CONTROL_FAMILY:
        return "control"
    return "numeric"


def instr(op: str, *args) -> Instr:
    """Convenience constructor that checks the mnemonic exists."""
    if op not in ALL_OPS:
        raise ValueError(f"unknown instruction {op!r}")
    return Instr(op, tuple(args))
