"""Module pretty-printer: the inverse of the text assembler.

Produces WAT-like text that :func:`repro.wasm.text.parse_module` reads back
into an equivalent module. Used by the upload service to store readable
artifacts, and by the test-suite's round-trip property tests.
"""

from __future__ import annotations

from .instructions import CONST_OPS, MEMARG_OPS, Instr
from .module import Module
from .types import FuncType


def _escape(data: bytes) -> str:
    out = []
    for byte in data:
        if byte == ord('"'):
            out.append('\\"')
        elif byte == ord("\\"):
            out.append("\\\\")
        elif 0x20 <= byte < 0x7F:
            out.append(chr(byte))
        elif byte == 0x0A:
            out.append("\\n")
        elif byte == 0x09:
            out.append("\\t")
        else:
            out.append(f"\\{byte:02x}")
    return "".join(out)


def _functype_clauses(ftype: FuncType) -> str:
    parts = []
    if ftype.params:
        parts.append("(param " + " ".join(str(t) for t in ftype.params) + ")")
    if ftype.results:
        parts.append("(result " + " ".join(str(t) for t in ftype.results) + ")")
    return " ".join(parts)


def _float_repr(x: float) -> str:
    import math

    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


class _Printer:
    def __init__(self, module: Module):
        self.module = module
        self.lines: list[str] = []
        self.indent = 1

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.indent + text)

    # ------------------------------------------------------------------
    def print(self) -> str:
        module = self.module
        self.lines = ["(module"]
        for imp in module.imports:
            clauses = _functype_clauses(imp.type)
            self.emit(
                f'(import "{imp.module}" "{imp.name}" '
                f"(func {clauses})".rstrip() + ")"
            )
        if module.memory is not None:
            limits = module.memory.limits
            maximum = f" {limits.maximum}" if limits.maximum is not None else ""
            exported = next(
                (e for e in module.exports if e.kind == "memory"), None
            )
            export_clause = f' (export "{exported.name}")' if exported else ""
            self.emit(f"(memory{export_clause} {limits.minimum}{maximum})")
        if module.table is not None:
            limits = module.table.limits
            maximum = f" {limits.maximum}" if limits.maximum is not None else ""
            self.emit(f"(table {limits.minimum}{maximum} funcref)")
        for seg in module.elements:
            funcs = " ".join(str(i) for i in seg.func_indices)
            self.emit(f"(elem (i32.const {seg.offset}) {funcs})")
        for i, g in enumerate(module.globals_):
            ty = str(g.type.valtype)
            typedesc = f"(mut {ty})" if g.type.mutable else ty
            if g.type.valtype.is_float:
                init = f"({ty}.const {_float_repr(float(g.init))})"
            else:
                init = f"({ty}.const {int(g.init)})"
            self.emit(f"(global $g{i} {typedesc} {init})")
        for seg in module.data:
            self.emit(f'(data (i32.const {seg.offset}) "{_escape(seg.data)}")')
        n_imports = len(module.imports)
        func_exports = {
            e.index: e.name for e in module.exports if e.kind == "func"
        }
        global_exports = [e for e in module.exports if e.kind == "global"]
        for i, func in enumerate(module.funcs):
            index = n_imports + i
            export = (
                f' (export "{func_exports[index]}")' if index in func_exports else ""
            )
            clauses = _functype_clauses(func.type)
            header = f"(func $f{index}{export}"
            if clauses:
                header += f" {clauses}"
            self.emit(header)
            self.indent += 1
            if func.locals:
                self.emit("(local " + " ".join(str(t) for t in func.locals) + ")")
            self._print_body(func.body)
            self.indent -= 1
            self.emit(")")
        for export in global_exports:
            self.emit(f'(export "{export.name}" (global {export.index}))')
        if module.start is not None:
            self.emit(f"(start {module.start})")
        self.lines.append(")")
        return "\n".join(self.lines)

    # ------------------------------------------------------------------
    def _print_body(self, body: list[Instr]) -> None:
        for ins in body:
            self._print_instr(ins)

    def _print_instr(self, ins: Instr) -> None:
        op = ins.op
        if op in ("block", "loop"):
            bt, inner = ins.args
            clauses = _functype_clauses(FuncType(bt.params, bt.results))
            self.emit(f"({op}" + (f" {clauses}" if clauses else ""))
            self.indent += 1
            self._print_body(inner)
            self.indent -= 1
            self.emit(")")
            return
        if op == "if":
            bt = ins.args[0]
            then_body = ins.args[1]
            else_body = ins.args[2] if len(ins.args) > 2 else []
            clauses = _functype_clauses(FuncType(bt.params, bt.results))
            self.emit("(if" + (f" {clauses}" if clauses else ""))
            self.indent += 1
            self.emit("(then")
            self.indent += 1
            self._print_body(then_body)
            self.indent -= 1
            self.emit(")")
            if else_body:
                self.emit("(else")
                self.indent += 1
                self._print_body(else_body)
                self.indent -= 1
                self.emit(")")
            self.indent -= 1
            self.emit(")")
            return
        if op in CONST_OPS:
            value = ins.args[0]
            if op.startswith("f"):
                self.emit(f"{op} {_float_repr(float(value))}")
            else:
                self.emit(f"{op} {int(value)}")
            return
        if op in MEMARG_OPS:
            offset = ins.args[0] if ins.args else 0
            self.emit(f"{op} offset={offset}" if offset else op)
            return
        if op == "br_table":
            depths, default = ins.args
            parts = " ".join(str(d) for d in depths)
            self.emit(f"br_table {parts} {default}".replace("  ", " "))
            return
        if op == "call_indirect":
            clauses = _functype_clauses(ins.args[0])
            self.emit(f"(call_indirect {clauses})")
            return
        if ins.args:
            self.emit(f"{op} " + " ".join(str(a) for a in ins.args))
        else:
            self.emit(op)


def print_module(module: Module) -> str:
    """Render ``module`` as parseable WAT-like text."""
    return _Printer(module).print()
