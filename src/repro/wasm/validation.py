"""Static validation: stack-based type checking of modules.

Implements the standard WebAssembly validation algorithm (value stack +
control-frame stack, with an ``unreachable`` mode that makes the bottom of
the stack polymorphic). Validation runs in the trusted environment before
code generation (§3.4): a module that validates cannot underflow the operand
stack, reference undefined locals/globals/functions, or leave a block with
the wrong types. Together with the interpreter's runtime traps this gives
the SFI guarantees Faaslets rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .instructions import (
    ATOMIC_CMPXCHG_OPS,
    ATOMIC_RMW_OPS,
    ATOMIC_WAIT_NOTIFY_OPS,
    CONST_OPS,
    INSTR_SIGS,
    LOAD_OPS,
    STORE_OPS,
    BlockType,
    Instr,
)
from .module import Module
from .types import I32, FuncType, ValType

#: Atomic ops that carry a memory offset immediate but type-check through
#: the generic INSTR_SIGS path (plain atomic load/store live in
#: LOAD_OPS/STORE_OPS and take the load/store branches instead).
_ATOMIC_MEMARG = (
    frozenset(ATOMIC_RMW_OPS)
    | frozenset(ATOMIC_CMPXCHG_OPS)
    | frozenset(ATOMIC_WAIT_NOTIFY_OPS)
)


#: Sentinel for a stack slot of unknown (polymorphic) type.
_UNKNOWN = None


@dataclass
class _Ctrl:
    """A control frame: one entry per enclosing block/loop/if/function."""

    opcode: str
    params: tuple[ValType, ...]
    results: tuple[ValType, ...]
    height: int
    unreachable: bool = False

    @property
    def label_types(self) -> tuple[ValType, ...]:
        """Types a branch to this frame must provide (params for loops)."""
        return self.params if self.opcode == "loop" else self.results


class _FuncValidator:
    def __init__(self, module: Module, func_index: int):
        self.module = module
        func = module.funcs[func_index - len(module.imports)]
        self.func = func
        self.locals = list(func.type.params) + list(func.locals)
        self.vals: list[ValType | None] = []
        self.ctrls: list[_Ctrl] = []

    # -- stack primitives ------------------------------------------------
    def push_val(self, t: ValType | None) -> None:
        self.vals.append(t)

    def pop_val(self, expect: ValType | None = None) -> ValType | None:
        frame = self.ctrls[-1]
        if len(self.vals) == frame.height:
            if frame.unreachable:
                return expect
            raise ValidationError(
                f"{self._where()}: operand stack underflow (expected "
                f"{expect or 'a value'})"
            )
        actual = self.vals.pop()
        if expect is not None and actual is not None and actual != expect:
            raise ValidationError(
                f"{self._where()}: type mismatch, expected {expect}, got {actual}"
            )
        return actual if actual is not None else expect

    def pop_vals(self, types: tuple[ValType, ...]) -> None:
        for t in reversed(types):
            self.pop_val(t)

    def push_vals(self, types: tuple[ValType, ...]) -> None:
        for t in types:
            self.push_val(t)

    def push_ctrl(self, opcode: str, bt: BlockType) -> None:
        self.ctrls.append(
            _Ctrl(opcode, bt.params, bt.results, len(self.vals))
        )
        self.push_vals(bt.params)

    def pop_ctrl(self) -> _Ctrl:
        frame = self.ctrls[-1]
        self.pop_vals(frame.results)
        if len(self.vals) != frame.height:
            raise ValidationError(
                f"{self._where()}: {len(self.vals) - frame.height} extra "
                f"value(s) on stack at end of {frame.opcode}"
            )
        self.ctrls.pop()
        return frame

    def set_unreachable(self) -> None:
        frame = self.ctrls[-1]
        del self.vals[frame.height :]
        frame.unreachable = True

    def _where(self) -> str:
        return f"func {self.func.name or '?'}"

    def _label(self, depth: int) -> _Ctrl:
        if not isinstance(depth, int) or depth < 0 or depth >= len(self.ctrls):
            raise ValidationError(f"{self._where()}: invalid branch depth {depth}")
        return self.ctrls[-1 - depth]

    # -- instruction dispatch ---------------------------------------------
    def validate_body(self) -> None:
        self.push_ctrl("func", BlockType((), self.func.type.results))
        self._validate_seq(self.func.body)
        self.pop_ctrl()

    def _validate_seq(self, body: list[Instr]) -> None:
        for ins in body:
            self._validate_instr(ins)

    def _validate_instr(self, ins: Instr) -> None:
        op = ins.op
        if op in CONST_OPS:
            value = ins.args[0]
            ty = CONST_OPS[op]
            if ty.is_int and not isinstance(value, int):
                raise ValidationError(f"{op} immediate must be int")
            if ty.is_float and not isinstance(value, (int, float)):
                raise ValidationError(f"{op} immediate must be numeric")
            self.push_val(ty)
            return
        if op in LOAD_OPS:
            self._require_memory(op)
            self._check_offset(ins)
            ty, _, _ = LOAD_OPS[op]
            self.pop_val(I32)
            self.push_val(ty)
            return
        if op in STORE_OPS:
            self._require_memory(op)
            self._check_offset(ins)
            ty, _ = STORE_OPS[op]
            self.pop_val(ty)
            self.pop_val(I32)
            return
        if op in ("memory.size", "memory.grow"):
            self._require_memory(op)
        if op in _ATOMIC_MEMARG:
            self._require_memory(op)
            self._check_offset(ins)
        if op in INSTR_SIGS:
            pops, pushes = INSTR_SIGS[op]
            self.pop_vals(pops)
            self.push_vals(pushes)
            return

        handler = getattr(self, "_op_" + op.replace(".", "_"), None)
        if handler is None:
            raise ValidationError(f"{self._where()}: unknown instruction {op!r}")
        handler(ins)

    def _require_memory(self, op: str) -> None:
        if self.module.memory is None:
            raise ValidationError(f"{self._where()}: {op} requires a memory")

    def _check_offset(self, ins: Instr) -> None:
        offset = ins.args[0] if ins.args else 0
        if not isinstance(offset, int) or offset < 0:
            raise ValidationError(
                f"{self._where()}: memory offset must be a non-negative int"
            )

    # -- structured control -------------------------------------------------
    def _blocktype(self, ins: Instr) -> BlockType:
        bt = ins.args[0] if ins.args else BlockType()
        if not isinstance(bt, BlockType):
            raise ValidationError(f"{self._where()}: bad block type on {ins.op}")
        return bt

    def _op_block(self, ins: Instr) -> None:
        bt = self._blocktype(ins)
        self.pop_vals(bt.params)
        self.push_ctrl("block", bt)
        self._validate_seq(ins.args[1])
        frame = self.pop_ctrl()
        self.push_vals(frame.results)

    def _op_loop(self, ins: Instr) -> None:
        bt = self._blocktype(ins)
        self.pop_vals(bt.params)
        self.push_ctrl("loop", bt)
        self._validate_seq(ins.args[1])
        frame = self.pop_ctrl()
        self.push_vals(frame.results)

    def _op_if(self, ins: Instr) -> None:
        bt = self._blocktype(ins)
        self.pop_val(I32)
        self.pop_vals(bt.params)
        self.push_ctrl("if", bt)
        self._validate_seq(ins.args[1])
        self.pop_ctrl()
        then_else = ins.args[2] if len(ins.args) > 2 else []
        if bt.results and not then_else:
            raise ValidationError(
                f"{self._where()}: if with results requires an else branch"
            )
        self.push_ctrl("else", bt)
        self._validate_seq(then_else or [])
        frame = self.pop_ctrl()
        self.push_vals(frame.results)

    def _op_br(self, ins: Instr) -> None:
        frame = self._label(ins.args[0])
        self.pop_vals(frame.label_types)
        self.set_unreachable()

    def _op_br_if(self, ins: Instr) -> None:
        frame = self._label(ins.args[0])
        self.pop_val(I32)
        self.pop_vals(frame.label_types)
        self.push_vals(frame.label_types)

    def _op_br_table(self, ins: Instr) -> None:
        depths, default = ins.args
        default_frame = self._label(default)
        arity = default_frame.label_types
        self.pop_val(I32)
        for depth in depths:
            frame = self._label(depth)
            if frame.label_types != arity:
                raise ValidationError(
                    f"{self._where()}: br_table label arity mismatch"
                )
        self.pop_vals(arity)
        self.set_unreachable()

    def _op_return(self, ins: Instr) -> None:
        self.pop_vals(self.func.type.results)
        self.set_unreachable()

    def _op_unreachable(self, ins: Instr) -> None:
        self.set_unreachable()

    def _op_call(self, ins: Instr) -> None:
        index = ins.args[0]
        if not isinstance(index, int) or not 0 <= index < self.module.num_funcs:
            raise ValidationError(f"{self._where()}: call to invalid index {index}")
        ftype = self.module.func_type(index)
        self.pop_vals(ftype.params)
        self.push_vals(ftype.results)

    def _op_call_indirect(self, ins: Instr) -> None:
        if self.module.table is None:
            raise ValidationError(f"{self._where()}: call_indirect requires a table")
        ftype = ins.args[0]
        if not isinstance(ftype, FuncType):
            raise ValidationError(
                f"{self._where()}: call_indirect immediate must be a FuncType"
            )
        self.pop_val(I32)
        self.pop_vals(ftype.params)
        self.push_vals(ftype.results)

    # -- variables ------------------------------------------------------------
    def _local(self, ins: Instr) -> ValType:
        index = ins.args[0]
        if not isinstance(index, int) or not 0 <= index < len(self.locals):
            raise ValidationError(
                f"{self._where()}: invalid local index {index}"
            )
        return self.locals[index]

    def _op_local_get(self, ins: Instr) -> None:
        self.push_val(self._local(ins))

    def _op_local_set(self, ins: Instr) -> None:
        self.pop_val(self._local(ins))

    def _op_local_tee(self, ins: Instr) -> None:
        t = self._local(ins)
        self.pop_val(t)
        self.push_val(t)

    def _global(self, ins: Instr):
        index = ins.args[0]
        if not isinstance(index, int) or not 0 <= index < len(self.module.globals_):
            raise ValidationError(f"{self._where()}: invalid global index {index}")
        return self.module.globals_[index]

    def _op_global_get(self, ins: Instr) -> None:
        self.push_val(self._global(ins).type.valtype)

    def _op_global_set(self, ins: Instr) -> None:
        g = self._global(ins)
        if not g.type.mutable:
            raise ValidationError(f"{self._where()}: write to immutable global")
        self.pop_val(g.type.valtype)

    # -- parametric -------------------------------------------------------------
    def _op_drop(self, ins: Instr) -> None:
        self.pop_val()

    def _op_select(self, ins: Instr) -> None:
        self.pop_val(I32)
        t1 = self.pop_val()
        t2 = self.pop_val(t1)
        self.push_val(t1 if t1 is not None else t2)


def validate_module(module: Module) -> None:
    """Validate ``module``, raising :class:`ValidationError` on any defect."""
    # Globals: check init value shape.
    for i, g in enumerate(module.globals_):
        if g.type.valtype.is_int and not isinstance(g.init, int):
            raise ValidationError(f"global {i}: init value must be int")
        if g.type.valtype.is_float and not isinstance(g.init, (int, float)):
            raise ValidationError(f"global {i}: init value must be numeric")

    # Exports: names unique, indices in range.
    seen: set[str] = set()
    for export in module.exports:
        if export.name in seen:
            raise ValidationError(f"duplicate export name {export.name!r}")
        seen.add(export.name)
        if export.kind == "func":
            if not 0 <= export.index < module.num_funcs:
                raise ValidationError(f"export {export.name!r}: bad func index")
        elif export.kind == "global":
            if not 0 <= export.index < len(module.globals_):
                raise ValidationError(f"export {export.name!r}: bad global index")
        elif export.kind == "memory":
            if module.memory is None:
                raise ValidationError(f"export {export.name!r}: no memory")
        else:
            raise ValidationError(f"export {export.name!r}: bad kind {export.kind}")

    # Data segments need a memory; element segments need a table.
    if module.data and module.memory is None:
        raise ValidationError("data segment without memory")
    if module.elements and module.table is None:
        raise ValidationError("element segment without table")
    for seg in module.elements:
        for idx in seg.func_indices:
            if not 0 <= idx < module.num_funcs:
                raise ValidationError(f"element segment references bad func {idx}")

    # Start function must be [] -> [].
    if module.start is not None:
        if not 0 <= module.start < module.num_funcs:
            raise ValidationError("start function index out of range")
        st = module.func_type(module.start)
        if st.params or st.results:
            raise ValidationError("start function must have type [] -> []")

    # Function bodies.
    n_imports = len(module.imports)
    for i in range(len(module.funcs)):
        _FuncValidator(module, n_imports + i).validate_body()
