"""Text-format assembler: a WAT-like s-expression front end.

Supports the structured subset used throughout the repository:

* module fields: ``import``, ``memory``, ``data``, ``global``, ``table``,
  ``elem``, ``func``, ``export``, ``start``;
* plain instructions with immediates (``i32.const 5``, ``local.get $x``,
  ``i32.load offset=8``, ``br $label``);
* structured control as parenthesised forms: ``(block $l (result i32) ...)``,
  ``(loop ...)``, ``(if (result t) <cond> (then ...) (else ...))``;
* folded expressions: ``(i32.add (local.get $a) (i32.const 1))``.

The assembler is the untrusted "compilation" phase of §3.4; its output still
goes through validation before code generation.
"""

from __future__ import annotations

from .errors import ParseError
from .instructions import (
    ALL_OPS,
    CONST_OPS,
    MEMARG_OPS,
    BlockType,
    Instr,
)
from .module import (
    DataSegment,
    ElementSegment,
    Export,
    Function,
    Global,
    ImportedFunc,
    Module,
)
from .types import FuncType, GlobalType, Limits, MemoryType, TableType, ValType

# ----------------------------------------------------------------------
# Tokenizer / s-expression reader
# ----------------------------------------------------------------------


class _Tok:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind: str, value, line: int):
        self.kind = kind  # "(", ")", "atom", "string"
        self.value = value
        self.line = line


def _tokenize(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r":
            i += 1
        elif text.startswith(";;", i):
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif text.startswith("(;", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("(;", i):
                    depth += 1
                    i += 2
                elif text.startswith(";)", i):
                    depth -= 1
                    i += 2
                else:
                    if text[i] == "\n":
                        line += 1
                    i += 1
            if depth:
                raise ParseError("unterminated block comment", line)
        elif c == "(":
            tokens.append(_Tok("(", "(", line))
            i += 1
        elif c == ")":
            tokens.append(_Tok(")", ")", line))
            i += 1
        elif c == '"':
            j = i + 1
            out = bytearray()
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    esc = text[j + 1]
                    if esc == "n":
                        out += b"\n"
                        j += 2
                    elif esc == "t":
                        out += b"\t"
                        j += 2
                    elif esc in ('"', "\\"):
                        out += esc.encode()
                        j += 2
                    else:
                        out.append(int(text[j + 1 : j + 3], 16))
                        j += 3
                else:
                    out += text[j].encode("utf-8")
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line)
            tokens.append(_Tok("string", bytes(out), line))
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();"':
                j += 1
            tokens.append(_Tok("atom", text[i:j], line))
            i = j
    return tokens


def _read_sexprs(tokens: list[_Tok]):
    pos = 0

    def read():
        nonlocal pos
        tok = tokens[pos]
        if tok.kind == "(":
            pos += 1
            items = []
            while pos < len(tokens) and tokens[pos].kind != ")":
                items.append(read())
            if pos >= len(tokens):
                raise ParseError("unbalanced parentheses", tok.line)
            pos += 1
            return items
        if tok.kind == ")":
            raise ParseError("unexpected ')'", tok.line)
        pos += 1
        return tok

    exprs = []
    while pos < len(tokens):
        exprs.append(read())
    return exprs


def _is_atom(x, value: str | None = None) -> bool:
    return isinstance(x, _Tok) and x.kind == "atom" and (
        value is None or x.value == value
    )


def _head(sexpr) -> str | None:
    if isinstance(sexpr, list) and sexpr and _is_atom(sexpr[0]):
        return sexpr[0].value
    return None


def _parse_int(text: str, line: int) -> int:
    try:
        t = text.replace("_", "")
        if t.lower().startswith(("0x", "-0x", "+0x")):
            return int(t, 16)
        return int(t, 10)
    except ValueError:
        raise ParseError(f"bad integer literal {text!r}", line) from None


def _parse_float(text: str, line: int) -> float:
    t = text.replace("_", "")
    try:
        if t in ("nan", "+nan", "-nan"):
            return float("nan")
        if t in ("inf", "+inf"):
            return float("inf")
        if t == "-inf":
            return float("-inf")
        return float(t)
    except ValueError:
        raise ParseError(f"bad float literal {text!r}", line) from None


# ----------------------------------------------------------------------
# Module assembly
# ----------------------------------------------------------------------


class _Assembler:
    def __init__(self) -> None:
        self.module = Module()
        self.func_names: dict[str, int] = {}
        self.global_names: dict[str, int] = {}
        self._pending_funcs: list[tuple[list, int]] = []  # (sexpr, func_idx)

    # -- helpers ---------------------------------------------------------
    def _valtype(self, tok) -> ValType:
        if not _is_atom(tok):
            raise ParseError("expected a value type")
        try:
            return ValType.parse(tok.value)
        except ValueError:
            raise ParseError(f"unknown value type {tok.value!r}", tok.line) from None

    def _params_results(self, items: list) -> tuple[list[ValType], list[ValType], list[str | None]]:
        """Parse (param ...) and (result ...) clauses; returns param names."""
        params: list[ValType] = []
        names: list[str | None] = []
        results: list[ValType] = []
        for item in items:
            head = _head(item)
            if head == "param":
                rest = item[1:]
                if rest and _is_atom(rest[0]) and rest[0].value.startswith("$"):
                    names.append(rest[0].value)
                    params.append(self._valtype(rest[1]))
                else:
                    for tok in rest:
                        names.append(None)
                        params.append(self._valtype(tok))
            elif head == "result":
                results.extend(self._valtype(tok) for tok in item[1:])
        return params, results, names

    def _resolve_func(self, tok) -> int:
        if _is_atom(tok) and tok.value.startswith("$"):
            if tok.value not in self.func_names:
                raise ParseError(f"unknown function {tok.value}", tok.line)
            return self.func_names[tok.value]
        if _is_atom(tok):
            return _parse_int(tok.value, tok.line)
        raise ParseError("expected function reference")

    def _resolve_global(self, tok) -> int:
        if _is_atom(tok) and tok.value.startswith("$"):
            if tok.value not in self.global_names:
                raise ParseError(f"unknown global {tok.value}", tok.line)
            return self.global_names[tok.value]
        return _parse_int(tok.value, tok.line)

    def _const_expr(self, sexpr) -> int | float:
        head = _head(sexpr)
        if head not in CONST_OPS:
            raise ParseError("expected a constant expression")
        tok = sexpr[1]
        if head.startswith(("f32", "f64")):
            return _parse_float(tok.value, tok.line)
        return _parse_int(tok.value, tok.line)

    # -- module fields -----------------------------------------------------
    def assemble(self, sexpr) -> Module:
        if _head(sexpr) != "module":
            raise ParseError("top-level form must be (module ...)")
        fields = sexpr[1:]
        if fields and _is_atom(fields[0]) and fields[0].value.startswith("$"):
            self.module.name = fields[0].value[1:]
            fields = fields[1:]

        # Pass 1: establish the function index space (imports first).
        for field in fields:
            if _head(field) == "import" and _head(field[3]) == "func":
                self._field_import(field)
        for field in fields:
            if _head(field) == "func":
                self._declare_func(field)

        # Pass 2: everything else, and function bodies.
        for field in fields:
            head = _head(field)
            if head == "import":
                continue  # handled in pass 1
            handler = getattr(self, f"_field_{head}", None)
            if handler is None:
                raise ParseError(f"unknown module field {head!r}")
            handler(field)

        for sexpr_func, idx in self._pending_funcs:
            self._assemble_body(sexpr_func, idx)
        return self.module

    def _field_import(self, field) -> None:
        mod_tok, name_tok, desc = field[1], field[2], field[3]
        if _head(desc) != "func":
            raise ParseError("only function imports are supported")
        rest = desc[1:]
        fname = None
        if rest and _is_atom(rest[0]) and rest[0].value.startswith("$"):
            fname = rest[0].value
            rest = rest[1:]
        params, results, _ = self._params_results(rest)
        idx = len(self.module.imports)
        if self.module.funcs:
            raise ParseError("imports must precede function definitions")
        self.module.imports.append(
            ImportedFunc(
                mod_tok.value.decode(), name_tok.value.decode(),
                FuncType(tuple(params), tuple(results)),
            )
        )
        if fname:
            self.func_names[fname] = idx

    def _declare_func(self, field) -> None:
        rest = field[1:]
        fname = None
        if rest and _is_atom(rest[0]) and rest[0].value.startswith("$"):
            fname = rest[0].value
            rest = rest[1:]
        exports = []
        while rest and _head(rest[0]) == "export":
            exports.append(rest[0][1].value.decode())
            rest = rest[1:]
        params, results, param_names = self._params_results(rest)
        idx = len(self.module.imports) + len(self.module.funcs)
        func = Function(
            FuncType(tuple(params), tuple(results)),
            name=fname[1:] if fname else None,
        )
        self.module.funcs.append(func)
        if fname:
            self.func_names[fname] = idx
        for export_name in exports:
            self.module.exports.append(Export(export_name, "func", idx))
        self._pending_funcs.append((field, idx))

    def _field_func(self, field) -> None:
        pass  # declared in pass 1, body assembled afterwards

    def _field_memory(self, field) -> None:
        rest = field[1:]
        while rest and _head(rest[0]) == "export":
            self.module.exports.append(
                Export(rest[0][1].value.decode(), "memory", 0)
            )
            rest = rest[1:]
        minimum = _parse_int(rest[0].value, rest[0].line)
        maximum = _parse_int(rest[1].value, rest[1].line) if len(rest) > 1 else None
        self.module.memory = MemoryType(Limits(minimum, maximum))

    def _field_data(self, field) -> None:
        offset = self._const_expr(field[1])
        data = b"".join(tok.value for tok in field[2:])
        self.module.data.append(DataSegment(int(offset), data))

    def _field_global(self, field) -> None:
        rest = field[1:]
        gname = None
        if _is_atom(rest[0]) and rest[0].value.startswith("$"):
            gname = rest[0].value
            rest = rest[1:]
        typedesc = rest[0]
        if _head(typedesc) == "mut":
            gtype = GlobalType(self._valtype(typedesc[1]), mutable=True)
        else:
            gtype = GlobalType(self._valtype(typedesc), mutable=False)
        init = self._const_expr(rest[1])
        idx = len(self.module.globals_)
        self.module.globals_.append(Global(gtype, init))
        if gname:
            self.global_names[gname] = idx

    def _field_table(self, field) -> None:
        rest = field[1:]
        if rest and _is_atom(rest[0]) and rest[0].value.startswith("$"):
            rest = rest[1:]
        if len(rest) >= 2 and _is_atom(rest[0], "funcref") and _head(rest[1]) == "elem":
            funcs = [self._resolve_func(tok) for tok in rest[1][1:]]
            self.module.table = TableType(Limits(len(funcs)))
            self.module.elements.append(ElementSegment(0, funcs))
            return
        minimum = _parse_int(rest[0].value, rest[0].line)
        maximum = None
        if len(rest) > 1 and _is_atom(rest[1]) and not _is_atom(rest[1], "funcref"):
            maximum = _parse_int(rest[1].value, rest[1].line)
        self.module.table = TableType(Limits(minimum, maximum))

    def _field_elem(self, field) -> None:
        offset = int(self._const_expr(field[1]))
        funcs = [self._resolve_func(tok) for tok in field[2:]]
        self.module.elements.append(ElementSegment(offset, funcs))

    def _field_export(self, field) -> None:
        name = field[1].value.decode()
        desc = field[2]
        kind = _head(desc)
        if kind == "func":
            self.module.exports.append(Export(name, "func", self._resolve_func(desc[1])))
        elif kind == "global":
            self.module.exports.append(
                Export(name, "global", self._resolve_global(desc[1]))
            )
        elif kind == "memory":
            self.module.exports.append(Export(name, "memory", 0))
        else:
            raise ParseError(f"cannot export {kind!r}")

    def _field_start(self, field) -> None:
        self.module.start = self._resolve_func(field[1])

    # -- function bodies ----------------------------------------------------
    def _assemble_body(self, field, func_idx: int) -> None:
        func = self.module.funcs[func_idx - len(self.module.imports)]
        rest = field[1:]
        if rest and _is_atom(rest[0]) and rest[0].value.startswith("$"):
            rest = rest[1:]
        while rest and _head(rest[0]) == "export":
            rest = rest[1:]
        params, results, param_names = self._params_results(
            [x for x in rest if _head(x) in ("param", "result")]
        )
        rest = [x for x in rest if _head(x) not in ("param", "result")]

        local_names: dict[str, int] = {}
        for i, name in enumerate(param_names):
            if name:
                local_names[name] = i
        locals_: list[ValType] = []
        body_forms = []
        for item in rest:
            if _head(item) == "local":
                inner = item[1:]
                if inner and _is_atom(inner[0]) and inner[0].value.startswith("$"):
                    local_names[inner[0].value] = len(params) + len(locals_)
                    locals_.append(self._valtype(inner[1]))
                else:
                    for tok in inner:
                        locals_.append(self._valtype(tok))
            else:
                body_forms.append(item)
        func.locals = locals_

        ctx = _BodyContext(self, local_names)
        body: list[Instr] = []
        ctx.emit_forms(body_forms, body, [])
        func.body = body


class _BodyContext:
    """Lowers instruction forms (flat and folded) to ``Instr`` lists."""

    def __init__(self, asm: _Assembler, local_names: dict[str, int]):
        self.asm = asm
        self.local_names = local_names

    def emit_forms(self, forms: list, out: list[Instr], labels: list[str | None]) -> None:
        i = 0
        while i < len(forms):
            i = self._emit_form(forms, i, out, labels)

    # Returns index of the next unconsumed form.
    def _emit_form(self, forms: list, i: int, out: list[Instr], labels) -> int:
        form = forms[i]
        if isinstance(form, _Tok):
            return self._emit_plain(forms, i, out, labels)
        head = _head(form)
        if head in ("block", "loop"):
            self._emit_block(form, out, labels, head)
            return i + 1
        if head == "if":
            self._emit_if(form, out, labels)
            return i + 1
        # Folded plain instruction: (op operand-exprs... immediates handled).
        self._emit_folded(form, out, labels)
        return i + 1

    def _emit_plain(self, forms: list, i: int, out: list[Instr], labels) -> int:
        tok = forms[i]
        op = tok.value
        if op not in ALL_OPS:
            raise ParseError(f"unknown instruction {op!r}", tok.line)
        n_imm, args = self._immediates(op, forms, i + 1, labels)
        out.append(Instr(op, args))
        return i + 1 + n_imm

    def _immediates(self, op: str, forms: list, start: int, labels) -> tuple[int, tuple]:
        """Consume immediate tokens following a plain instruction."""
        def atom(j):
            return forms[j] if j < len(forms) and isinstance(forms[j], _Tok) else None

        if op in CONST_OPS:
            tok = atom(start)
            if tok is None:
                raise ParseError(f"{op} requires an immediate")
            if op.startswith("f"):
                return 1, (_parse_float(tok.value, tok.line),)
            return 1, (_parse_int(tok.value, tok.line),)
        if op in ("local.get", "local.set", "local.tee"):
            tok = atom(start)
            return 1, (self._local_index(tok),)
        if op in ("global.get", "global.set"):
            tok = atom(start)
            return 1, (self.asm._resolve_global(tok),)
        if op == "call":
            tok = atom(start)
            return 1, (self.asm._resolve_func(tok),)
        if op == "call_indirect":
            raise ParseError("call_indirect must be written in folded form")
        if op in ("br", "br_if"):
            tok = atom(start)
            return 1, (self._label_depth(tok, labels),)
        if op == "br_table":
            depths = []
            used = 0
            tok = atom(start + used)
            while tok is not None and (
                tok.value.startswith("$") or tok.value.lstrip("+-").isdigit()
            ):
                depths.append(self._label_depth(tok, labels))
                used += 1
                tok = atom(start + used)
            if len(depths) < 1:
                raise ParseError("br_table requires at least a default label")
            return used, (tuple(depths[:-1]), depths[-1])
        if op in MEMARG_OPS:
            offset = 0
            used = 0
            tok = atom(start)
            while tok is not None and "=" in tok.value:
                key, _, value = tok.value.partition("=")
                if key == "offset":
                    offset = _parse_int(value, tok.line)
                elif key != "align":
                    raise ParseError(f"unknown memory immediate {key!r}", tok.line)
                used += 1
                tok = atom(start + used)
            return used, (offset,)
        return 0, ()

    def _local_index(self, tok) -> int:
        if tok is None:
            raise ParseError("expected a local index")
        if tok.value.startswith("$"):
            if tok.value not in self.local_names:
                raise ParseError(f"unknown local {tok.value}", tok.line)
            return self.local_names[tok.value]
        return _parse_int(tok.value, tok.line)

    def _label_depth(self, tok, labels) -> int:
        if tok is None:
            raise ParseError("expected a branch label")
        if tok.value.startswith("$"):
            for depth, name in enumerate(reversed(labels)):
                if name == tok.value:
                    return depth
            raise ParseError(f"unknown label {tok.value}", tok.line)
        return _parse_int(tok.value, tok.line)

    def _block_type(self, forms: list) -> tuple[BlockType, list]:
        params: list[ValType] = []
        results: list[ValType] = []
        rest = list(forms)
        while rest and _head(rest[0]) in ("param", "result"):
            clause = rest.pop(0)
            types = [self.asm._valtype(tok) for tok in clause[1:]]
            if _head(clause) == "param":
                params.extend(types)
            else:
                results.extend(types)
        return BlockType(tuple(params), tuple(results)), rest

    def _emit_block(self, form, out: list[Instr], labels, kind: str) -> None:
        rest = form[1:]
        label = None
        if rest and _is_atom(rest[0]) and rest[0].value.startswith("$"):
            label = rest[0].value
            rest = rest[1:]
        bt, rest = self._block_type(rest)
        inner: list[Instr] = []
        self.emit_forms(rest, inner, labels + [label])
        out.append(Instr(kind, (bt, inner)))

    def _emit_if(self, form, out: list[Instr], labels) -> None:
        rest = form[1:]
        label = None
        if rest and _is_atom(rest[0]) and rest[0].value.startswith("$"):
            label = rest[0].value
            rest = rest[1:]
        bt, rest = self._block_type(rest)
        then_forms, else_forms = None, []
        cond_forms = []
        for item in rest:
            if _head(item) == "then":
                then_forms = item[1:]
            elif _head(item) == "else":
                else_forms = item[1:]
            else:
                cond_forms.append(item)
        if then_forms is None:
            raise ParseError("if requires a (then ...) branch")
        for cond in cond_forms:
            self._emit_form([cond], 0, out, labels)
        then_body: list[Instr] = []
        self.emit_forms(list(then_forms), then_body, labels + [label])
        else_body: list[Instr] = []
        self.emit_forms(list(else_forms), else_body, labels + [label])
        out.append(Instr("if", (bt, then_body, else_body)))

    def _emit_folded(self, form, out: list[Instr], labels) -> None:
        head_tok = form[0]
        if not _is_atom(head_tok):
            raise ParseError("expected an instruction")
        op = head_tok.value
        if op not in ALL_OPS:
            raise ParseError(f"unknown instruction {op!r}", head_tok.line)
        rest = form[1:]

        if op == "call_indirect":
            params, results, _ = self.asm._params_results(
                [x for x in rest if _head(x) in ("param", "result")]
            )
            operands = [x for x in rest if _head(x) not in ("param", "result")]
            for operand in operands:
                self._emit_form([operand], 0, out, labels)
            out.append(Instr(op, (FuncType(tuple(params), tuple(results)),)))
            return

        # Split immediates (leading atoms) from operand sub-expressions.
        imm_forms: list = []
        operand_forms: list = []
        for item in rest:
            if isinstance(item, _Tok) and not operand_forms:
                imm_forms.append(item)
            else:
                operand_forms.append(item)
        for operand in operand_forms:
            self._emit_form([operand], 0, out, labels)
        _, args = self._immediates(op, [None] + imm_forms, 1, labels)
        out.append(Instr(op, args))


def parse_module(text: str) -> Module:
    """Assemble a module from its text representation (not yet validated)."""
    tokens = _tokenize(text)
    exprs = _read_sexprs(tokens)
    if len(exprs) != 1:
        raise ParseError("expected exactly one (module ...) form")
    return _Assembler().assemble(exprs[0])
