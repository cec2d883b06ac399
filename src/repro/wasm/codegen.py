"""Code generation: structured instructions → flat "object code".

This is the trusted phase 2 of §3.4: after validation, nested control
structures are lowered to a linear instruction array with every branch
target resolved to a program counter. The reference interpreter executes
the flat form directly; the default tier lowers it once more, to one
Python function per guest function (:mod:`repro.wasm.compiled`), which is
our stand-in for WAVM's native code generation.

Flat form conventions (``code`` is a list of tuples):

* ``("block", end_pc, results_arity, params_arity)`` — push a label whose
  branch target is ``end_pc + 1`` (just past the matching ``end``).
* ``("loop", self_pc, params_arity)`` — push a label whose branch target is
  the loop opcode itself; re-executing it re-pushes the label.
* ``("if", false_pc, end_pc, results_arity, params_arity)`` — pop condition;
  when false, jump to ``false_pc`` (first instruction of the else branch, or
  the ``end``).
* ``("else", end_pc)`` — reached on fall-through from the then branch: jump
  to the ``end``.
* ``("end",)`` — pop the innermost label.
* ``("br", depth)`` / ``("br_if", depth)`` / ``("br_table", depths, default)``.

Constant immediates are canonicalised here (i32/i64 wrapped to unsigned,
f32 rounded through single precision) so the interpreter can assume
normalised values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import CONST_OPS, Instr
from .module import Function, Module
from .simd import canon_v128
from .types import FuncType, ValType
from .values import to_f32, wrap32, wrap64


@dataclass
class CompiledFunction:
    """A function lowered to flat code, ready for execution."""

    name: str | None
    type: FuncType
    local_types: list[ValType]
    code: list[tuple]
    #: Total number of locals including parameters.
    n_locals: int = 0
    #: Lazily-built Python function (see :mod:`repro.wasm.compiled`).
    #: Runtime-only: instance-independent, shared across every instance of
    #: the module, and deliberately excluded from object-file serialisation.
    compiled: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.n_locals = len(self.type.params) + len(self.local_types)


def _canon_const(op: str, value):
    ty = CONST_OPS[op]
    if ty is ValType.I32:
        return wrap32(int(value))
    if ty is ValType.I64:
        return wrap64(int(value))
    if ty is ValType.F32:
        return to_f32(float(value))
    if ty is ValType.V128:
        return canon_v128(value)
    return float(value)


class _Emitter:
    def __init__(self) -> None:
        self.code: list[tuple] = []

    def emit_seq(self, body: list[Instr]) -> None:
        for ins in body:
            self.emit(ins)

    def emit(self, ins: Instr) -> None:
        op = ins.op
        code = self.code
        if op in CONST_OPS:
            code.append((op, _canon_const(op, ins.args[0])))
        elif op == "block":
            bt, inner = ins.args
            slot = len(code)
            code.append(None)  # patched below
            self.emit_seq(inner)
            end_pc = len(code)
            code.append(("end",))
            code[slot] = ("block", end_pc, len(bt.results), len(bt.params))
        elif op == "loop":
            bt, inner = ins.args
            self_pc = len(code)
            code.append(("loop", self_pc, len(bt.params)))
            self.emit_seq(inner)
            code.append(("end",))
        elif op == "if":
            bt = ins.args[0]
            then_body = ins.args[1]
            else_body = ins.args[2] if len(ins.args) > 2 else []
            slot = len(code)
            code.append(None)
            self.emit_seq(then_body)
            if else_body:
                else_slot = len(code)
                code.append(None)
                false_pc = len(code)
                self.emit_seq(else_body)
                end_pc = len(code)
                code.append(("end",))
                code[else_slot] = ("else", end_pc)
            else:
                end_pc = len(code)
                code.append(("end",))
                false_pc = end_pc
            code[slot] = ("if", false_pc, end_pc, len(bt.results), len(bt.params))
        elif op == "br_table":
            depths, default = ins.args
            code.append(("br_table", tuple(depths), default))
        else:
            code.append((op, *ins.args))


def compile_function(func: Function) -> CompiledFunction:
    """Lower one validated function body to flat code."""
    emitter = _Emitter()
    emitter.emit_seq(func.body)
    emitter.code.append(("return",))
    return CompiledFunction(func.name, func.type, list(func.locals), emitter.code)


def compile_module(module: Module) -> list[CompiledFunction]:
    """Lower every defined function. Order matches ``module.funcs``."""
    return [compile_function(f) for f in module.funcs]
