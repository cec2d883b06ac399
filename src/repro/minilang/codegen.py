"""Code generation: minilang AST → ``repro.wasm`` module.

The generated module uses a simple bump allocator (``__alloc``) for ``new``
arrays, growing linear memory on demand and trapping on out-of-memory.
Array accesses lower to bounds-checked wasm loads/stores, so any indexing
error becomes an SFI trap rather than a silent corruption — exactly the
property Faaslets rely on (§2.2).
"""

from __future__ import annotations

from repro.wasm import BlockType, FuncType, Instr, ModuleBuilder
from repro.wasm.module import Module
from repro.wasm.types import F64, I32, I64, ValType

from . import ast
from .errors import TypeErrorML
from .parser import parse

#: Byte offset where the guest heap starts (below it: scratch/data area).
HEAP_BASE = 1024

_SCALAR_TO_WASM = {"int": I32, "long": I64, "float": F64}

#: One-argument float builtins mapped straight to wasm operators.
_FLOAT_UNARY_BUILTINS = {
    "sqrt": "f64.sqrt",
    "fabs": "f64.abs",
    "floor": "f64.floor",
    "ceil": "f64.ceil",
    "trunc": "f64.trunc",
    "round": "f64.nearest",
}

_FLOAT_BINARY_BUILTINS = {"fmin": "f64.min", "fmax": "f64.max"}

_ARITH = {"+": "add", "-": "sub", "*": "mul"}
_INT_CMP = {"==": "eq", "!=": "ne", "<": "lt_s", "<=": "le_s", ">": "gt_s", ">=": "ge_s"}
_FLT_CMP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def wasm_type(t: ast.Type) -> ValType:
    """Lower a minilang type to its wasm representation (arrays are i32
    addresses)."""
    if t.is_array:
        return I32
    return _SCALAR_TO_WASM[t.name]


def _walk_stmts(stmts: list[ast.Stmt]):
    """Yield every statement in ``stmts``, recursing into nested blocks."""
    for s in stmts:
        yield s
        if isinstance(s, ast.If):
            yield from _walk_stmts(s.then_body)
            yield from _walk_stmts(s.else_body)
        elif isinstance(s, (ast.While, ast.ParallelFor)):
            yield from _walk_stmts(s.body)
        elif isinstance(s, ast.For):
            if s.init is not None:
                yield from _walk_stmts([s.init])
            if s.step is not None:
                yield from _walk_stmts([s.step])
            yield from _walk_stmts(s.body)


def _stmt_exprs(s: ast.Stmt) -> list[ast.Expr | None]:
    """The expressions directly held by one statement (no recursion)."""
    if isinstance(s, ast.VarDecl):
        return [s.init]
    if isinstance(s, ast.Assign):
        return [s.target, s.value]
    if isinstance(s, (ast.If, ast.While)):
        return [s.cond]
    if isinstance(s, ast.For):
        return [s.cond]
    if isinstance(s, ast.ParallelFor):
        return [s.lo, s.hi, s.nthreads]
    if isinstance(s, ast.Return):
        return [s.value]
    if isinstance(s, ast.ExprStmt):
        return [s.expr]
    return []


def _expr_vars(e: ast.Expr | None, out: list[str]) -> None:
    """Collect variable names referenced by ``e`` (in evaluation order)."""
    if e is None:
        return
    if isinstance(e, ast.Var):
        out.append(e.name)
    elif isinstance(e, ast.Unary):
        _expr_vars(e.operand, out)
    elif isinstance(e, ast.Binary):
        _expr_vars(e.lhs, out)
        _expr_vars(e.rhs, out)
    elif isinstance(e, ast.Cast):
        _expr_vars(e.operand, out)
    elif isinstance(e, ast.Call):
        for a in e.args:
            _expr_vars(a, out)
    elif isinstance(e, ast.Index):
        _expr_vars(e.array, out)
        _expr_vars(e.index, out)
    elif isinstance(e, ast.NewArray):
        _expr_vars(e.length, out)


def _uses_parallel_for(program: ast.Program) -> bool:
    return any(
        isinstance(s, ast.ParallelFor)
        for f in program.funcs
        for s in _walk_stmts(f.body)
    )


class _FuncContext:
    def __init__(self, func: ast.FuncDef):
        self.func = func
        self.local_types: list[ValType] = []
        self.scopes: list[dict[str, tuple[int, ast.Type]]] = [{}]
        self.n_params = len(func.params)
        #: Current number of enclosing labels while emitting.
        self.depth = 0
        #: Stack of (break_level, continue_level) for enclosing loops.
        self.loops: list[tuple[int, int]] = []

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, vtype: ast.Type, line: int) -> int:
        if name in self.scopes[-1]:
            raise TypeErrorML(f"redeclaration of {name!r}", line)
        index = self.n_params + len(self.local_types)
        self.local_types.append(wasm_type(vtype))
        self.scopes[-1][name] = (index, vtype)
        return index

    def lookup(self, name: str) -> tuple[int, ast.Type] | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


class Compiler:
    """Compiles a minilang :class:`~repro.minilang.ast.Program` to a wasm
    module (not yet validated — validation is the trusted phase)."""

    def __init__(self, program: ast.Program, module_name: str | None = None):
        self.program = program
        self.builder = ModuleBuilder(module_name)
        #: name -> (index, FuncType, return minilang Type, param minilang Types)
        self.funcs: dict[str, tuple[int, ast.Type, list[ast.Type]]] = {}
        self.globals: dict[str, tuple[int, ast.Type]] = {}
        self.heap_global = 0
        #: Interned string literals: bytes -> data-segment address.
        self._strings: dict[bytes, int] = {}
        self._data_cursor = 16  # low addresses reserved for string data
        #: Outlined parallel_for workers queued during emission, emitted
        #: after all user functions so their pre-assigned indices line up.
        self._synthetics: list[ast.FuncDef] = []
        self._synthetic_base = 0
        #: Function indices placed in the table (parallel_for spawn targets).
        self._elem_funcs: list[int] = []
        self._pf_count = 0

    # ------------------------------------------------------------------
    def compile(self) -> Module:
        self.builder.add_memory(1, None)
        self.heap_global = self.builder.add_global(I32, HEAP_BASE, mutable=True)

        for decl in self.program.globals:
            if decl.name in self.globals:
                raise TypeErrorML(f"duplicate global {decl.name!r}", decl.line)
            idx = self.builder.add_global(
                wasm_type(decl.type), decl.init, mutable=True
            )
            self.globals[decl.name] = (idx, decl.type)

        for ext in self.program.externs:
            ftype = FuncType(
                tuple(wasm_type(t) for t in ext.param_types),
                () if ext.return_type.name == "void" else (wasm_type(ext.return_type),),
            )
            idx = self.builder.import_func("env", ext.name, ftype)
            self.funcs[ext.name] = (idx, ext.return_type, list(ext.param_types))

        # parallel_for lowers to the guest-thread host calls; import them
        # implicitly (before any defined function) if the program did not
        # declare them itself.
        if _uses_parallel_for(self.program):
            for name, ftype, ptypes in (
                ("thread_spawn", FuncType((I32, I32), (I32,)), [ast.INT, ast.INT]),
                ("thread_join", FuncType((I32,), (I32,)), [ast.INT]),
            ):
                if name not in self.funcs:
                    idx = self.builder.import_func("env", name, ftype)
                    self.funcs[name] = (idx, ast.INT, ptypes)

        alloc_idx = self._emit_alloc()
        self.funcs["__alloc"] = (alloc_idx, ast.INT, [ast.INT])

        # Declare all user functions first so forward references work.
        declared: list[tuple[ast.FuncDef, int]] = []
        next_index = self.builder.module.num_funcs
        for func in self.program.funcs:
            if func.name in self.funcs:
                raise TypeErrorML(f"duplicate function {func.name!r}", func.line)
            self.funcs[func.name] = (
                next_index + len(declared),
                func.return_type,
                [p.type for p in func.params],
            )
            declared.append((func, next_index + len(declared)))

        self._synthetic_base = next_index + len(declared)
        for func, _ in declared:
            self._emit_func(func)

        # Emit queued workers (a worker may queue more — e.g. a
        # parallel_for nested in an outlined parallel_for body).
        qi = 0
        while qi < len(self._synthetics):
            self._emit_func(self._synthetics[qi])
            qi += 1
        if self._elem_funcs:
            self.builder.add_table(len(self._elem_funcs), len(self._elem_funcs))
            self.builder.add_element(0, list(self._elem_funcs))

        # String data lives below the heap: if the literals outgrew the
        # default heap base, move the heap start up (the heap global's init
        # is only read at instantiation).
        if self._data_cursor > HEAP_BASE:
            aligned = (self._data_cursor + 7) & ~7
            self.builder.module.globals_[self.heap_global].init = aligned
        return self.builder.build()

    def _intern_string(self, value: bytes) -> int:
        """Place a NUL-terminated copy of ``value`` in a data segment."""
        addr = self._strings.get(value)
        if addr is None:
            addr = self._data_cursor
            self.builder.add_data(addr, value + b"\x00")
            self._data_cursor += len(value) + 1
            self._strings[value] = addr
        return addr

    # ------------------------------------------------------------------
    def _emit_alloc(self) -> int:
        """Emit the bump allocator: ``__alloc(bytes: int) -> int``."""
        body = [
            # bytes = (bytes + 7) & ~7
            Instr("local.get", (0,)),
            Instr("i32.const", (7,)),
            Instr("i32.add"),
            Instr("i32.const", (-8,)),
            Instr("i32.and"),
            Instr("local.set", (0,)),
            # addr = heap
            Instr("global.get", (self.heap_global,)),
            Instr("local.set", (1,)),
            # heap = addr + bytes
            Instr("local.get", (1,)),
            Instr("local.get", (0,)),
            Instr("i32.add",),
            Instr("local.tee", (2,)),
            Instr("global.set", (self.heap_global,)),
            # needed = (heap + 65535) >> 16
            Instr("local.get", (2,)),
            Instr("i32.const", (65535,)),
            Instr("i32.add"),
            Instr("i32.const", (16,)),
            Instr("i32.shr_u"),
            Instr("local.set", (3,)),
            Instr(
                "block",
                (
                    BlockType(),
                    [
                        Instr("local.get", (3,)),
                        Instr("memory.size"),
                        Instr("i32.le_s"),
                        Instr("br_if", (0,)),
                        Instr("local.get", (3,)),
                        Instr("memory.size"),
                        Instr("i32.sub"),
                        Instr("memory.grow"),
                        Instr("i32.const", (-1,)),
                        Instr("i32.ne"),
                        Instr("br_if", (0,)),
                        Instr("unreachable"),
                    ],
                ),
            ),
            Instr("local.get", (1,)),
        ]
        return self.builder.add_function(
            "__alloc", FuncType((I32,), (I32,)), [I32, I32, I32], body
        )

    # ------------------------------------------------------------------
    def _emit_func(self, func: ast.FuncDef) -> None:
        ctx = _FuncContext(func)
        for i, param in enumerate(func.params):
            if ctx.lookup(param.name) is not None:
                raise TypeErrorML(f"duplicate parameter {param.name!r}", func.line)
            ctx.scopes[0][param.name] = (i, param.type)
        out: list[Instr] = []
        self._gen_stmts(ctx, func.body, out)
        if func.return_type.name != "void" or func.return_type.is_array:
            # A well-typed program returns before reaching here; reaching the
            # end of a non-void function is a trap (missing return).
            out.append(Instr("unreachable"))
        ftype = FuncType(
            tuple(wasm_type(p.type) for p in func.params),
            ()
            if (func.return_type.name == "void" and not func.return_type.is_array)
            else (wasm_type(func.return_type),),
        )
        self.builder.add_function(
            func.name, ftype, ctx.local_types, out, export=func.exported
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _gen_stmts(self, ctx: _FuncContext, stmts: list[ast.Stmt], out: list[Instr]) -> None:
        for stmt in stmts:
            self._gen_stmt(ctx, stmt, out)

    def _gen_stmt(self, ctx: _FuncContext, stmt: ast.Stmt, out: list[Instr]) -> None:
        if isinstance(stmt, ast.VarDecl):
            index = ctx.declare(stmt.name, stmt.type, stmt.line)
            if stmt.init is not None:
                itype = self._gen_expr(ctx, stmt.init, out)
                self._coerce(itype, stmt.type, out, stmt.line)
            else:
                zero = {
                    I32: Instr("i32.const", (0,)),
                    I64: Instr("i64.const", (0,)),
                    F64: Instr("f64.const", (0.0,)),
                }[wasm_type(stmt.type)]
                out.append(zero)
            out.append(Instr("local.set", (index,)))
        elif isinstance(stmt, ast.Assign):
            self._gen_assign(ctx, stmt, out)
        elif isinstance(stmt, ast.If):
            self._gen_cond(ctx, stmt.cond, out)
            then_body: list[Instr] = []
            else_body: list[Instr] = []
            ctx.depth += 1
            ctx.push_scope()
            self._gen_stmts(ctx, stmt.then_body, then_body)
            ctx.pop_scope()
            ctx.push_scope()
            self._gen_stmts(ctx, stmt.else_body, else_body)
            ctx.pop_scope()
            ctx.depth -= 1
            out.append(Instr("if", (BlockType(), then_body, else_body)))
        elif isinstance(stmt, ast.While):
            self._gen_while(ctx, stmt, out)
        elif isinstance(stmt, ast.For):
            self._gen_for(ctx, stmt, out)
        elif isinstance(stmt, ast.ParallelFor):
            self._gen_parallel_for(ctx, stmt, out)
        elif isinstance(stmt, ast.Return):
            rtype = ctx.func.return_type
            if stmt.value is None:
                if rtype.name != "void":
                    raise TypeErrorML("missing return value", stmt.line)
            else:
                if rtype.name == "void" and not rtype.is_array:
                    raise TypeErrorML("void function returns a value", stmt.line)
                vtype = self._gen_expr(ctx, stmt.value, out)
                self._coerce(vtype, rtype, out, stmt.line)
            out.append(Instr("return"))
        elif isinstance(stmt, ast.Break):
            if not ctx.loops:
                raise TypeErrorML("break outside a loop", stmt.line)
            break_level, _ = ctx.loops[-1]
            out.append(Instr("br", (ctx.depth - 1 - break_level,)))
        elif isinstance(stmt, ast.Continue):
            if not ctx.loops:
                raise TypeErrorML("continue outside a loop", stmt.line)
            _, continue_level = ctx.loops[-1]
            out.append(Instr("br", (ctx.depth - 1 - continue_level,)))
        elif isinstance(stmt, ast.ExprStmt):
            etype = self._gen_expr(ctx, stmt.expr, out)
            if etype.name != "void" or etype.is_array:
                out.append(Instr("drop"))
        else:  # pragma: no cover - parser emits only known nodes
            raise TypeErrorML(f"unknown statement {type(stmt).__name__}", stmt.line)

    def _gen_assign(self, ctx: _FuncContext, stmt: ast.Assign, out: list[Instr]) -> None:
        target = stmt.target
        if isinstance(target, ast.Var):
            binding = ctx.lookup(target.name)
            if binding is not None:
                index, vtype = binding
                etype = self._gen_expr(ctx, stmt.value, out)
                self._coerce(etype, vtype, out, stmt.line)
                out.append(Instr("local.set", (index,)))
                return
            if target.name in self.globals:
                gidx, gtype = self.globals[target.name]
                etype = self._gen_expr(ctx, stmt.value, out)
                self._coerce(etype, gtype, out, stmt.line)
                out.append(Instr("global.set", (gidx,)))
                return
            raise TypeErrorML(f"undeclared variable {target.name!r}", stmt.line)
        assert isinstance(target, ast.Index)
        elem = self._gen_element_addr(ctx, target, out)
        etype = self._gen_expr(ctx, stmt.value, out)
        self._coerce(etype, elem, out, stmt.line)
        store = {"int": "i32.store", "long": "i64.store", "float": "f64.store"}[elem.name]
        out.append(Instr(store, (0,)))

    def _gen_while(self, ctx: _FuncContext, stmt: ast.While, out: list[Instr]) -> None:
        exit_level = ctx.depth
        loop_level = ctx.depth + 1
        ctx.depth += 2
        ctx.loops.append((exit_level, loop_level))
        ctx.push_scope()
        loop_body: list[Instr] = []
        self._gen_cond(ctx, stmt.cond, loop_body)
        loop_body.append(Instr("i32.eqz"))
        loop_body.append(Instr("br_if", (1,)))  # to exit block
        self._gen_stmts(ctx, stmt.body, loop_body)
        loop_body.append(Instr("br", (0,)))  # back to loop
        ctx.pop_scope()
        ctx.loops.pop()
        ctx.depth -= 2
        out.append(
            Instr("block", (BlockType(), [Instr("loop", (BlockType(), loop_body))]))
        )

    def _gen_for(self, ctx: _FuncContext, stmt: ast.For, out: list[Instr]) -> None:
        ctx.push_scope()
        if stmt.init is not None:
            self._gen_stmt(ctx, stmt.init, out)
        exit_level = ctx.depth
        loop_level = ctx.depth + 1
        cont_level = ctx.depth + 2
        loop_body: list[Instr] = []
        ctx.depth += 2
        if stmt.cond is not None:
            self._gen_cond(ctx, stmt.cond, loop_body)
            loop_body.append(Instr("i32.eqz"))
            loop_body.append(Instr("br_if", (1,)))
        inner: list[Instr] = []
        ctx.depth += 1
        ctx.loops.append((exit_level, cont_level))
        ctx.push_scope()
        self._gen_stmts(ctx, stmt.body, inner)
        ctx.pop_scope()
        ctx.loops.pop()
        ctx.depth -= 1
        loop_body.append(Instr("block", (BlockType(), inner)))
        if stmt.step is not None:
            self._gen_stmt(ctx, stmt.step, loop_body)
        loop_body.append(Instr("br", (0,)))
        ctx.depth -= 2
        ctx.pop_scope()
        out.append(
            Instr("block", (BlockType(), [Instr("loop", (BlockType(), loop_body))]))
        )

    # ------------------------------------------------------------------
    # parallel_for: fork-join parallel regions over guest threads
    # ------------------------------------------------------------------
    def _captured_vars(self, ctx: _FuncContext, stmt: ast.ParallelFor) -> list[tuple[str, ast.Type]]:
        """Enclosing locals the region body reads, in first-use order.

        Globals are shared through the instance and need no capture; names
        declared inside the body (or any loop variable) are region-private.
        """
        declared = {stmt.var}
        for s in _walk_stmts(stmt.body):
            if isinstance(s, ast.VarDecl):
                declared.add(s.name)
            elif isinstance(s, ast.ParallelFor):
                declared.add(s.var)
        refs: list[str] = []
        for s in _walk_stmts(stmt.body):
            for e in _stmt_exprs(s):
                _expr_vars(e, refs)
        captured: list[tuple[str, ast.Type]] = []
        seen: set[str] = set()
        for name in refs:
            if name in declared or name in seen:
                continue
            binding = ctx.lookup(name)
            if binding is None:
                continue  # a global (shared) or undeclared (errors in the worker)
            seen.add(name)
            captured.append((name, binding[1]))
        # A write to a captured scalar would die with the thread's private
        # copy — silently. Make it a compile error instead.
        for s in _walk_stmts(stmt.body):
            if isinstance(s, ast.Assign) and isinstance(s.target, ast.Var):
                if s.target.name in seen:
                    raise TypeErrorML(
                        f"cannot assign to captured variable {s.target.name!r} "
                        "inside parallel_for (captures are per-thread copies; "
                        "write results through a shared array)",
                        s.line,
                    )
        return captured

    def _gen_parallel_for(self, ctx: _FuncContext, stmt: ast.ParallelFor, out: list[Instr]) -> None:
        """Outline the body into a hidden worker ``(i32 argptr) -> void`` and
        emit spawn/join plumbing in the parent.

        The arg struct layout (8-byte slots so every type is aligned)::

            +0   i32 chunk_lo        +4   i32 chunk_hi
            +8+8j  captured value j  (i32/i64/f64; arrays as base address)
        """
        L = stmt.line
        captured = self._captured_vars(ctx, stmt)

        def V(name):
            return ast.Var(L, name)

        def I(v):
            return ast.IntLit(L, v)

        def B(op, a, b):
            return ast.Binary(L, op, a, b)

        def C(name, *args):
            return ast.Call(L, name, list(args))

        def at(arr, idx):
            return ast.Index(L, arr, I(idx))

        # --- the outlined worker -------------------------------------
        arg_words = C("iarr", V("__arg"))
        cap_decls: list[ast.Stmt] = []
        for j, (name, ctype) in enumerate(captured):
            if ctype.is_array:
                view = {"int": "iarr", "long": "larr", "float": "farr"}[ctype.name]
                init: ast.Expr = C(view, at(C("iarr", V("__arg")), 2 + 2 * j))
            elif ctype.name == "int":
                init = at(C("iarr", V("__arg")), 2 + 2 * j)
            elif ctype.name == "long":
                init = at(C("larr", V("__arg")), 1 + j)
            else:
                init = at(C("farr", V("__arg")), 1 + j)
            cap_decls.append(ast.VarDecl(L, ctype, name, init))
        worker_body: list[ast.Stmt] = [
            *cap_decls,
            ast.VarDecl(L, ast.INT, "__pf_hi", at(arg_words, 1)),
            ast.VarDecl(L, ast.INT, stmt.var, at(C("iarr", V("__arg")), 0)),
            ast.For(
                L,
                None,
                B("<", V(stmt.var), V("__pf_hi")),
                ast.Assign(L, V(stmt.var), B("+", V(stmt.var), I(1))),
                stmt.body,
            ),
        ]
        n = self._pf_count
        self._pf_count += 1
        wname = f"__pf_{n}"
        worker = ast.FuncDef(
            wname, ast.VOID, [ast.Param(ast.INT, "__arg")], worker_body, False, L
        )
        widx = self._synthetic_base + len(self._synthetics)
        self.funcs[wname] = (widx, ast.VOID, [ast.INT])
        self._synthetics.append(worker)
        elem_index = len(self._elem_funcs)
        self._elem_funcs.append(widx)

        # --- the parent-side spawn/join plumbing ---------------------
        s = f"__pf{n}"
        nt, lo, hi, ck = f"{s}_nt", f"{s}_lo", f"{s}_hi", f"{s}_ck"
        tids, t, arg, cl, ch = f"{s}_tids", f"{s}_t", f"{s}_arg", f"{s}_cl", f"{s}_ch"
        cap_stores: list[ast.Stmt] = []
        for j, (name, ctype) in enumerate(captured):
            if ctype.is_array:
                cap_stores.append(
                    ast.Assign(L, at(V(arg), 2 + 2 * j), C("ptr", V(name)))
                )
            elif ctype.name == "int":
                cap_stores.append(ast.Assign(L, at(V(arg), 2 + 2 * j), V(name)))
            else:
                view = {"long": "larr", "float": "farr"}[ctype.name]
                cap_stores.append(
                    ast.Assign(L, at(C(view, C("ptr", V(arg))), 1 + j), V(name))
                )
        plumbing: list[ast.Stmt] = [
            ast.VarDecl(L, ast.INT, nt, stmt.nthreads),
            ast.If(L, B("<", V(nt), I(1)), [ast.Assign(L, V(nt), I(1))], []),
            ast.VarDecl(L, ast.INT, lo, stmt.lo),
            ast.VarDecl(L, ast.INT, hi, stmt.hi),
            ast.If(L, B("<", V(hi), V(lo)), [ast.Assign(L, V(hi), V(lo))], []),
            # ck = ceil((hi - lo) / nt)
            ast.VarDecl(
                L, ast.INT, ck,
                B("/", B("-", B("+", B("-", V(hi), V(lo)), V(nt)), I(1)), V(nt)),
            ),
            ast.VarDecl(
                L, ast.Type("int", True), tids, ast.NewArray(L, ast.INT, V(nt))
            ),
            ast.For(
                L,
                ast.VarDecl(L, ast.INT, t, I(0)),
                B("<", V(t), V(nt)),
                ast.Assign(L, V(t), B("+", V(t), I(1))),
                [
                    ast.VarDecl(
                        L, ast.Type("int", True), arg,
                        ast.NewArray(L, ast.INT, I(2 + 2 * len(captured))),
                    ),
                    ast.VarDecl(L, ast.INT, cl, B("+", V(lo), B("*", V(t), V(ck)))),
                    ast.If(L, B(">", V(cl), V(hi)), [ast.Assign(L, V(cl), V(hi))], []),
                    ast.VarDecl(L, ast.INT, ch, B("+", V(cl), V(ck))),
                    ast.If(L, B(">", V(ch), V(hi)), [ast.Assign(L, V(ch), V(hi))], []),
                    ast.Assign(L, at(V(arg), 0), V(cl)),
                    ast.Assign(L, at(V(arg), 1), V(ch)),
                    *cap_stores,
                    ast.Assign(
                        L, ast.Index(L, V(tids), V(t)),
                        C("thread_spawn", I(elem_index), C("ptr", V(arg))),
                    ),
                ],
            ),
            ast.For(
                L,
                ast.VarDecl(L, ast.INT, t, I(0)),
                B("<", V(t), V(nt)),
                ast.Assign(L, V(t), B("+", V(t), I(1))),
                [ast.ExprStmt(L, C("thread_join", ast.Index(L, V(tids), V(t))))],
            ),
        ]
        ctx.push_scope()
        self._gen_stmts(ctx, plumbing, out)
        ctx.pop_scope()

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _gen_cond(self, ctx: _FuncContext, expr: ast.Expr, out: list[Instr]) -> None:
        """Evaluate a condition to an i32 truth value."""
        etype = self._gen_expr(ctx, expr, out)
        if etype.is_array:
            raise TypeErrorML("array used as a condition", expr.line)
        if etype.name == "long":
            out.append(Instr("i64.const", (0,)))
            out.append(Instr("i64.ne"))
        elif etype.name == "float":
            out.append(Instr("f64.const", (0.0,)))
            out.append(Instr("f64.ne"))
        elif etype.name != "int":
            raise TypeErrorML(f"{etype} used as a condition", expr.line)

    def _gen_expr(self, ctx: _FuncContext, expr: ast.Expr, out: list[Instr]) -> ast.Type:
        if isinstance(expr, ast.IntLit):
            out.append(Instr("i32.const", (expr.value,)))
            return ast.INT
        if isinstance(expr, ast.FloatLit):
            out.append(Instr("f64.const", (expr.value,)))
            return ast.FLOAT
        if isinstance(expr, ast.StrLit):
            out.append(Instr("i32.const", (self._intern_string(expr.value),)))
            return ast.INT
        if isinstance(expr, ast.Var):
            binding = ctx.lookup(expr.name)
            if binding is not None:
                index, vtype = binding
                out.append(Instr("local.get", (index,)))
                return vtype
            if expr.name in self.globals:
                gidx, gtype = self.globals[expr.name]
                out.append(Instr("global.get", (gidx,)))
                return gtype
            raise TypeErrorML(f"undeclared variable {expr.name!r}", expr.line)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(ctx, expr, out)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(ctx, expr, out)
        if isinstance(expr, ast.Cast):
            return self._gen_cast(ctx, expr, out)
        if isinstance(expr, ast.Call):
            return self._gen_call(ctx, expr, out)
        if isinstance(expr, ast.Index):
            elem = self._gen_element_addr(ctx, expr, out)
            load = {"int": "i32.load", "long": "i64.load", "float": "f64.load"}[elem.name]
            out.append(Instr(load, (0,)))
            return elem
        if isinstance(expr, ast.NewArray):
            ltype = self._gen_expr(ctx, expr.length, out)
            if ltype != ast.INT:
                raise TypeErrorML("array length must be int", expr.line)
            out.append(Instr("i32.const", (expr.element.element_size,)))
            out.append(Instr("i32.mul"))
            out.append(Instr("call", (self.funcs["__alloc"][0],)))
            return ast.Type(expr.element.name, is_array=True)
        raise TypeErrorML(f"unknown expression {type(expr).__name__}", expr.line)

    def _gen_element_addr(self, ctx: _FuncContext, expr: ast.Index, out: list[Instr]) -> ast.Type:
        atype = self._gen_expr(ctx, expr.array, out)
        if not atype.is_array:
            raise TypeErrorML(f"cannot index non-array type {atype}", expr.line)
        itype = self._gen_expr(ctx, expr.index, out)
        if itype != ast.INT:
            raise TypeErrorML("array index must be int", expr.line)
        size = atype.element_size
        if size == 8:
            out.append(Instr("i32.const", (3,)))
            out.append(Instr("i32.shl"))
        else:
            out.append(Instr("i32.const", (2,)))
            out.append(Instr("i32.shl"))
        out.append(Instr("i32.add"))
        return atype.element

    def _gen_unary(self, ctx: _FuncContext, expr: ast.Unary, out: list[Instr]) -> ast.Type:
        if expr.op == "-":
            # Constant-fold the common literal case for readability of output.
            if isinstance(expr.operand, ast.IntLit):
                out.append(Instr("i32.const", (-expr.operand.value,)))
                return ast.INT
            if isinstance(expr.operand, ast.FloatLit):
                out.append(Instr("f64.const", (-expr.operand.value,)))
                return ast.FLOAT
            sub: list[Instr] = []
            otype = self._gen_expr(ctx, expr.operand, sub)
            if otype == ast.FLOAT:
                out.extend(sub)
                out.append(Instr("f64.neg"))
            elif otype == ast.INT:
                out.append(Instr("i32.const", (0,)))
                out.extend(sub)
                out.append(Instr("i32.sub"))
            elif otype == ast.LONG:
                out.append(Instr("i64.const", (0,)))
                out.extend(sub)
                out.append(Instr("i64.sub"))
            else:
                raise TypeErrorML(f"cannot negate {otype}", expr.line)
            return otype
        if expr.op == "!":
            otype = self._gen_expr(ctx, expr.operand, out)
            if otype != ast.INT:
                raise TypeErrorML("! requires an int operand", expr.line)
            out.append(Instr("i32.eqz"))
            return ast.INT
        raise TypeErrorML(f"unknown unary operator {expr.op!r}", expr.line)

    def _gen_binary(self, ctx: _FuncContext, expr: ast.Binary, out: list[Instr]) -> ast.Type:
        if expr.op in ("&&", "||"):
            self._gen_cond(ctx, expr.lhs, out)
            rhs: list[Instr] = []
            ctx.depth += 1
            self._gen_cond(ctx, expr.rhs, rhs)
            ctx.depth -= 1
            bt = BlockType((), (I32,))
            if expr.op == "&&":
                out.append(Instr("if", (bt, rhs, [Instr("i32.const", (0,))])))
            else:
                out.append(Instr("if", (bt, [Instr("i32.const", (1,))], rhs)))
            return ast.INT

        lhs_code: list[Instr] = []
        rhs_code: list[Instr] = []
        ltype = self._gen_expr(ctx, expr.lhs, lhs_code)
        rtype = self._gen_expr(ctx, expr.rhs, rhs_code)
        if ltype.is_array or rtype.is_array:
            raise TypeErrorML("arithmetic on array values", expr.line)
        common = self._promote(ltype, rtype, expr.line)
        out.extend(lhs_code)
        self._coerce(ltype, common, out, expr.line)
        out.extend(rhs_code)
        self._coerce(rtype, common, out, expr.line)

        prefix = {"int": "i32", "long": "i64", "float": "f64"}[common.name]
        op = expr.op
        if op in _ARITH:
            out.append(Instr(f"{prefix}.{_ARITH[op]}"))
            return common
        if op == "/":
            out.append(Instr(f"{prefix}.div" if common == ast.FLOAT else f"{prefix}.div_s"))
            return common
        if op == "%":
            if common == ast.FLOAT:
                raise TypeErrorML("% is not defined for float", expr.line)
            out.append(Instr(f"{prefix}.rem_s"))
            return common
        cmp = _FLT_CMP if common == ast.FLOAT else _INT_CMP
        if op in cmp:
            out.append(Instr(f"{prefix}.{cmp[op]}"))
            return ast.INT
        raise TypeErrorML(f"unknown binary operator {op!r}", expr.line)

    def _gen_cast(self, ctx: _FuncContext, expr: ast.Cast, out: list[Instr]) -> ast.Type:
        otype = self._gen_expr(ctx, expr.operand, out)
        target = expr.target
        if otype.is_array or target.is_array:
            raise TypeErrorML("cannot cast array types", expr.line)
        if otype == target:
            return target
        conv = {
            ("int", "float"): "f64.convert_i32_s",
            ("int", "long"): "i64.extend_i32_s",
            ("long", "int"): "i32.wrap_i64",
            ("long", "float"): "f64.convert_i64_s",
            ("float", "int"): "i32.trunc_f64_s",
            ("float", "long"): "i64.trunc_f64_s",
        }.get((otype.name, target.name))
        if conv is None:
            raise TypeErrorML(f"cannot cast {otype} to {target}", expr.line)
        out.append(Instr(conv))
        return target

    def _gen_call(self, ctx: _FuncContext, expr: ast.Call, out: list[Instr]) -> ast.Type:
        if expr.name == "ptr":
            # ptr(arr): reinterpret an array as its raw base address, for
            # passing byte buffers through the host interface.
            if len(expr.args) != 1:
                raise TypeErrorML("ptr takes one argument", expr.line)
            atype = self._gen_expr(ctx, expr.args[0], out)
            if not atype.is_array:
                raise TypeErrorML("ptr requires an array argument", expr.line)
            return ast.INT
        if expr.name == "slen":
            # slen("literal"): compile-time length of a string literal.
            if len(expr.args) != 1 or not isinstance(expr.args[0], ast.StrLit):
                raise TypeErrorML("slen requires a string literal", expr.line)
            out.append(Instr("i32.const", (len(expr.args[0].value),)))
            return ast.INT
        if expr.name in ("farr", "iarr", "larr"):
            # farr/iarr/larr(addr): view a raw address (e.g. one returned by
            # get_state) as a float[]/int[]/long[] array.
            if len(expr.args) != 1:
                raise TypeErrorML(f"{expr.name} takes one argument", expr.line)
            atype = self._gen_expr(ctx, expr.args[0], out)
            if atype != ast.INT:
                raise TypeErrorML(f"{expr.name} requires an int address", expr.line)
            elem = {"farr": "float", "iarr": "int", "larr": "long"}[expr.name]
            return ast.Type(elem, is_array=True)
        if expr.name == "loadb":
            # loadb(addr): read one byte from linear memory.
            if len(expr.args) != 1:
                raise TypeErrorML("loadb takes one argument", expr.line)
            atype = self._gen_expr(ctx, expr.args[0], out)
            if atype != ast.INT:
                raise TypeErrorML("loadb requires an int address", expr.line)
            out.append(Instr("i32.load8_u", (0,)))
            return ast.INT
        if expr.name == "storeb":
            # storeb(addr, value): write one byte to linear memory.
            if len(expr.args) != 2:
                raise TypeErrorML("storeb takes two arguments", expr.line)
            for arg in expr.args:
                atype = self._gen_expr(ctx, arg, out)
                if atype != ast.INT:
                    raise TypeErrorML("storeb requires int arguments", expr.line)
            out.append(Instr("i32.store8", (0,)))
            return ast.VOID
        if expr.name in _FLOAT_UNARY_BUILTINS:
            if len(expr.args) != 1:
                raise TypeErrorML(f"{expr.name} takes one argument", expr.line)
            atype = self._gen_expr(ctx, expr.args[0], out)
            self._coerce(atype, ast.FLOAT, out, expr.line)
            out.append(Instr(_FLOAT_UNARY_BUILTINS[expr.name]))
            return ast.FLOAT
        if expr.name in _FLOAT_BINARY_BUILTINS:
            if len(expr.args) != 2:
                raise TypeErrorML(f"{expr.name} takes two arguments", expr.line)
            for arg in expr.args:
                atype = self._gen_expr(ctx, arg, out)
                self._coerce(atype, ast.FLOAT, out, expr.line)
            out.append(Instr(_FLOAT_BINARY_BUILTINS[expr.name]))
            return ast.FLOAT
        if expr.name not in self.funcs:
            raise TypeErrorML(f"call to unknown function {expr.name!r}", expr.line)
        index, rtype, ptypes = self.funcs[expr.name]
        if len(expr.args) != len(ptypes):
            raise TypeErrorML(
                f"{expr.name} expects {len(ptypes)} arguments, got {len(expr.args)}",
                expr.line,
            )
        for arg, ptype in zip(expr.args, ptypes):
            atype = self._gen_expr(ctx, arg, out)
            self._coerce(atype, ptype, out, expr.line)
        out.append(Instr("call", (index,)))
        return rtype

    # ------------------------------------------------------------------
    # Type coercion
    # ------------------------------------------------------------------
    def _promote(self, a: ast.Type, b: ast.Type, line: int) -> ast.Type:
        if a == b:
            return a
        names = {a.name, b.name}
        if "float" in names and names <= {"float", "int", "long"}:
            return ast.FLOAT
        if names == {"int", "long"}:
            return ast.LONG
        raise TypeErrorML(f"incompatible operand types {a} and {b}", line)

    def _coerce(self, src: ast.Type, dst: ast.Type, out: list[Instr], line: int) -> None:
        """Emit an implicit widening conversion, or fail."""
        if src == dst:
            return
        if src.is_array or dst.is_array:
            raise TypeErrorML(f"cannot convert {src} to {dst}", line)
        conv = {
            ("int", "long"): "i64.extend_i32_s",
            ("int", "float"): "f64.convert_i32_s",
            ("long", "float"): "f64.convert_i64_s",
        }.get((src.name, dst.name))
        if conv is None:
            raise TypeErrorML(
                f"cannot implicitly convert {src} to {dst} (use a cast)", line
            )
        out.append(Instr(conv))


def compile_program(program: ast.Program, name: str | None = None) -> Module:
    """Compile a parsed program to an (unvalidated) wasm module."""
    return Compiler(program, name).compile()


def compile_source(source: str, name: str | None = None) -> Module:
    """Compile minilang source text to an (unvalidated) wasm module."""
    return compile_program(parse(source), name)
