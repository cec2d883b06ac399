"""Tier-2 execution: one generated Python function per guest function.

This is the repo's stand-in for WAVM's ahead-of-time code generation
(§3.4). Each validated :class:`~repro.wasm.codegen.CompiledFunction` is
lowered **once** to the source of a single Python function
``def f(inst, depth, L0, L1, ...)``, ``exec``-ed, and cached on the
function object, so every instance of the module — spawn, Proto-Faaslet
restore, ``dlopen`` — runs the same code object. The generated code
depends only on the module, never on instance state: memory, globals,
table and fuel are reached through ``inst``.

Lowering rules
--------------

* **Control flow is structured, so it stays structured.** A ``loop`` that
  is branched to becomes ``while True:`` (``br`` to it is ``continue``); a
  ``block`` or ``if`` that is branched to becomes a one-shot ``while
  True: ... break`` (``br`` to it is ``break``); the ``block{loop{}}``
  pair every ``for``/``while`` compiles to shares one ``while``. Blocks no
  branch targets produce no Python construct at all. A branch that leaves
  more than one Python loop sets ``_br`` and breaks; the check for it is
  emitted only after loops such a branch can escape through. There is no
  label stack and no dispatch loop.

* **Locals and operand-stack slots are Python locals.** Parameters arrive
  as arguments; pure operators stay symbolic and fold into their
  consumers; anything that can trap or touch shared state (loads, stores,
  div/rem, float→int truncation, globals, ``memory.*``) is materialised
  eagerly, in flat-code order, so effects and trap points are those of the
  reference interpreter. Values that are live across a control edge sit in
  ``s<height>`` (stack heights are static after validation).

* **Fuel is charged once per superblock.** A superblock is a maximal
  straight-line flat range ending at a control transfer, a call,
  ``memory.atomic.wait32`` or a join. Its prologue adds its instruction
  count to ``ex`` and compares against ``lim`` (fuel at the last sync, or
  :data:`UNMETERED`); both live in Python locals and are written back to
  the instance only where the interpreter writes them back: calls,
  ``wait32``, fuel exhaustion and normal exit. A trap drops them, exactly
  as the interpreter drops its own local counters. When the remaining
  fuel cannot cover the superblock, its ``else`` arm spills locals and
  stack to lists, runs *that superblock only* through the interpreter's
  per-instruction loop (:meth:`Instance._run_metered`), reloads and carries
  on in compiled code — so ``OutOfFuel`` fires at the same instruction with
  the same partial effects, and a refuel hook (guest-thread preemption)
  resumes compiled code. The superblock's final control instruction is
  charged by that arm but evaluated by the code both arms share.

* **The single-page memory fast path is inline**: bounds, page-straddle
  and (for stores) ``Page.writable`` tests sit in the generated code; any
  miss calls the typed :class:`~repro.wasm.memory.LinearMemory` access the
  interpreter uses, which handles COW, dirty-tracking ``notify`` and the
  trap. ``npg`` caches ``len(pages)``; pages are never removed, so a stale
  value only sends an access down that path.

CPython compiles at most 20 statically nested loops and ~100 indentation
levels; a function that would exceed either runs on the reference
interpreter instead (counted in ``wasm.compile_fallbacks``).
"""

from __future__ import annotations

import math

from .errors import CallStackExhausted, UnreachableExecuted
from .futex import atomic_notify, atomic_wait32
from .instructions import (
    ATOMIC_CMPXCHG_OPS,
    ATOMIC_RMW_OPS,
    CONST_OPS,
    LOAD_OPS,
    STORE_OPS,
)
from .memory import INLINE_LOADS, INLINE_STORES
from .ops import BINOPS, UNOPS
from .simd import SIMD_EXTRACT_OPS, SIMD_REPLACE_OPS
from .types import PAGE_SIZE
from .values import default_value

#: ``lim`` of an instance running without a fuel budget (tested by identity).
UNMETERED = 1 << 62

#: CPython's limits on one function, with head-room for the suites a
#: superblock and a store nest inside the current level.
MAX_PY_LOOPS = 20
MAX_PY_INDENT = 94

#: Pending expressions longer than this are materialised, which bounds
#: parenthesis nesting far below the parser's limit of 200.
_MAX_EXPR = 200

_OPENERS = frozenset(["block", "loop", "if"])

#: Instructions that end a superblock: they may divert control or re-enter
#: the runtime, so fuel must be exact (and, for calls, synced) before them.
_TERMINATORS = frozenset(
    ["if", "else", "br", "br_if", "br_table", "call", "call_indirect",
     "return", "unreachable",
     # wait32 can suspend the guest thread and re-enter the scheduler, so
     # it gets the same fuel handshake as a call.
     "memory.atomic.wait32"]
)

_M32 = "4294967295"
_M64 = "18446744073709551615"
_S32 = "2147483648"
_S64 = "9223372036854775808"


def _signed(e: str, bias: str) -> str:
    """Signed reading of the canonical unsigned ``e``. Written as a test
    rather than ``(e ^ bias) - bias``: for the small values loop counters
    and indices hold, arithmetic against a 2**31-sized constant costs a
    big-int allocation and a compare does not."""
    if e.isdigit():
        return f"({(int(e) ^ int(bias)) - int(bias)})"
    if e.isidentifier():
        return f"({e} if {e} < {bias} else {e} - {2 * int(bias)})"
    # ``_x`` is consumed before anything else can assign it again.
    return f"(_x if (_x := {e}) < {bias} else _x - {2 * int(bias)})"


def _cmp(a: str, b: str, sym: str) -> str:
    return f"(1 if {a} {sym} {b} else 0)"


def _test(e: str) -> str:
    """``e`` in boolean context: undo the 0/1 boxing of a comparison."""
    if e.startswith("(1 if ") and e.endswith(" else 0)"):
        return e[6:-8]
    if e.startswith("(0 if ") and e.endswith(" else 1)"):
        return f"not ({e[6:-8]})"
    return e


def _shift(b: str, bits: int) -> str:
    return str(int(b) & bits) if b.isdigit() else f"({b} & {bits})"


def _int_templates(sbias: str, shift: int) -> dict:
    # Exact transliterations of ops.py: operands are canonical unsigned
    # ints, so `% bits` on shift counts equals `& (bits-1)`. The first
    # seven are ring operations (see _WRAPPING): no mask here.
    return {
        "add": lambda a, b: f"({a} + {b})",
        "sub": lambda a, b: f"({a} - {b})",
        "mul": lambda a, b: f"({a} * {b})",
        "and": lambda a, b: f"({a} & {b})",
        "or": lambda a, b: f"({a} | {b})",
        "xor": lambda a, b: f"({a} ^ {b})",
        "shl": lambda a, b: f"({a} << {_shift(b, shift)})",
        "shr_u": lambda a, b: f"({a} >> {_shift(b, shift)})",
        "eq": lambda a, b: _cmp(a, b, "=="),
        "ne": lambda a, b: _cmp(a, b, "!="),
        "lt_u": lambda a, b: _cmp(a, b, "<"),
        "gt_u": lambda a, b: _cmp(a, b, ">"),
        "le_u": lambda a, b: _cmp(a, b, "<="),
        "ge_u": lambda a, b: _cmp(a, b, ">="),
        "lt_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), "<"),
        "gt_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), ">"),
        "le_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), "<="),
        "ge_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), ">="),
    }


#: op → callable(expr, ...) -> expr. Only ops whose semantics are an exact
#: transliteration of ops.py are inlined; everything else calls the bound
#: BINOPS/UNOPS function.
_INLINE_BINOPS: dict = {}
for _name, _tpl in _int_templates(_S32, 31).items():
    _INLINE_BINOPS[f"i32.{_name}"] = _tpl
for _name, _tpl in _int_templates(_S64, 63).items():
    _INLINE_BINOPS[f"i64.{_name}"] = _tpl

#: Integer add/sub/mul/shl and the bitwise ops commute with reduction
#: modulo 2**n, so they take un-reduced operands and their inline result
#: is only *congruent* to the wasm value: one ``& mask`` (op → mask, here)
#: is applied where a chain of them ends — a compare, an address, a local —
#: instead of after every step. Intermediate values stay small, and small
#: ints are what CPython is fast on.
_WRAPPING = {
    f"{t}.{o}": m for t, m in (("i32", _M32), ("i64", _M64))
    for o in ("add", "sub", "mul", "shl", "and", "or", "xor")
}
for _name, _sym in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("gt", ">"),
                    ("le", "<="), ("ge", ">=")):
    # Comparisons never round, so f32 and f64 share the inline form.
    _INLINE_BINOPS[f"f32.{_name}"] = (
        lambda a, b, _sym=_sym: _cmp(a, b, _sym)
    )
    _INLINE_BINOPS[f"f64.{_name}"] = _INLINE_BINOPS[f"f32.{_name}"]
for _name, _sym in (("add", "+"), ("sub", "-"), ("mul", "*")):
    # f64 arithmetic is raw IEEE double — exactly Python float arithmetic.
    # f32 needs the to_f32 rounding call, so it is not inlined; f64.div
    # has zero-divisor special cases, ditto.
    _INLINE_BINOPS[f"f64.{_name}"] = (
        lambda a, b, _sym=_sym: f"({a} {_sym} {b})"
    )

_INLINE_UNOPS: dict = {
    "i32.eqz": lambda a: f"(0 if {_test(a)} else 1)",
    "i64.eqz": lambda a: f"(0 if {_test(a)} else 1)",
    "f32.neg": lambda a: f"(-{a})",
    "f64.neg": lambda a: f"(-{a})",
    "f32.abs": lambda a: f"abs({a})",
    "f64.abs": lambda a: f"abs({a})",
    "i32.wrap_i64": lambda a: f"({a} & {_M32})",
    "i64.extend_i32_u": lambda a: f"({a} & {_M32})",
    "i64.extend_i32_s": lambda a: f"({_signed(a, _S32)} & {_M64})",
    "f64.convert_i32_s": lambda a: f"float({_signed(a, _S32)})",
    "f64.convert_i32_u": lambda a: f"float({a} & {_M32})",
    "f64.convert_i64_s": lambda a: f"float({_signed(a, _S64)})",
    "f64.convert_i64_u": lambda a: f"float({a} & {_M64})",
    "f64.promote_f32": lambda a: f"({a})",
}

#: Operators that can trap; their results are materialised eagerly so the
#: trap fires in flat-code order relative to stores and other effects.
_TRAPPING_OPS = frozenset(
    [f"{t}.{o}" for t in ("i32", "i64")
     for o in ("div_s", "div_u", "rem_s", "rem_u")]
    + [f"{t}.trunc_f{s}_{g}" for t in ("i32", "i64")
       for s in (32, 64) for g in ("s", "u")]
)


class _TooDeep(Exception):
    """The lowering would exceed one of CPython's nesting limits."""


class _Val:
    """One symbolic operand-stack entry: a pure Python expression.

    ``used`` is the set of local indices it reads (a ``local.set`` must
    materialise it first); ``temp`` the highest temp index it reads (an
    entry reading a temp of the open superblock has no value in that
    superblock's metered arm). An ``atom`` — constant, temp or slot — never
    changes once assigned, so it may stay pending across a control edge.
    ``wraps`` is the mask still owed when the expression is only congruent
    to its value (see :data:`_WRAPPING`); every consumer but a ring
    operation takes its operands through :meth:`_Lowering.pop`, which
    applies it.
    """

    __slots__ = ("expr", "used", "temp", "atom", "wraps")

    def __init__(self, expr, used=frozenset(), temp=-1, atom=False, wraps=None):
        self.expr = expr
        self.used = used
        self.temp = temp
        self.atom = atom
        self.wraps = wraps

    def reduced(self) -> "_Val":
        if self.wraps is None:
            return self
        return _Val(f"({self.expr} & {self.wraps})", self.used, self.temp)


class _Frame:
    """One open ``block``/``loop``/``if``. ``py`` indexes the Python loop
    a branch to this label leaves or repeats (None: nothing branches
    here); ``owns`` marks the frame whose ``end`` closes that loop."""

    __slots__ = ("kind", "base", "nparams", "nresults", "below",
                 "py", "owns", "has_else", "end_live")

    def __init__(self, kind, base, nparams, nresults):
        self.kind = kind
        self.base = base
        self.nparams = nparams
        self.nresults = nresults
        self.below = None
        self.py = None
        self.owns = False
        self.has_else = False
        self.end_live = False


def _analyse(code):
    """One scan with a control stack: which openers a branch targets,
    which ``block{loop{}}`` pairs share a Python loop, and the *joins* —
    pcs where a superblock must start because control arrives from more
    than one place (or a Python ``while`` opens or closes there)."""
    open_pcs: list[int] = []
    end_of: dict[int, int] = {}
    targeted: set[int] = set()
    for pc, ins in enumerate(code):
        op = ins[0]
        if op in _OPENERS:
            open_pcs.append(pc)
        elif op == "end":
            end_of[open_pcs.pop()] = pc
        elif op == "br" or op == "br_if" or op == "br_table":
            depths = (ins[1],) if op != "br_table" else (*ins[1], ins[2])
            for d in depths:
                if d < len(open_pcs):
                    targeted.add(open_pcs[-1 - d])
    merged = {
        pc for pc in targeted
        if code[pc][0] == "block" and pc + 1 in targeted
        and code[pc + 1][0] == "loop" and end_of[pc + 1] + 1 == end_of[pc]
        and code[pc][3] == 0 and code[pc + 1][2] == 0
    }
    joins: set[int] = set()
    for pc, end in end_of.items():
        op = code[pc][0]
        if op == "if":
            joins.add(end)
        if pc not in targeted:
            continue
        if op == "loop" or (op == "block" and pc not in merged):
            joins.add(pc)
        if op != "loop" or pc - 1 not in merged:
            joins.add(end + 1)
    return targeted, merged, joins


class _Lowering:
    """Lower one function's flat code to Python source (see module doc)."""

    def __init__(self, fn, module):
        self.fn = fn
        self.module = module
        self.code = fn.code
        self.targeted, self.merged, self.joins = _analyse(fn.code)
        self.n_locals = fn.n_locals
        self.ns: dict = {}
        self._bound: dict[int, str] = {}
        self.lines: list[str] = []
        self.ind = 1
        self.sym: list[_Val] = []
        self.ntemp = 0
        self.ctrl: list[_Frame] = []
        #: Open Python loops, innermost last: each the set of ``_br``
        #: codes that can leave it on the way to an outer loop.
        self.pyloops: list[set] = []
        self.live = True
        self.dead_depth = 0
        #: Fast-arm lines of the open superblock (None: between two).
        self.body: list[str] | None = None
        self.sb = (0, 0)
        self.sb_temp0 = 0
        self.sb_entry: list[str] = []
        self.sb_written: set[int] = set()
        self.uses_br = False
        #: What the prologue has to fetch from the instance.
        ops = {ins[0] for ins in fn.code}
        self.uses_pages = any(op in INLINE_LOADS or op in INLINE_STORES for op in ops)
        self.uses_glb = bool(ops & {"global.get", "global.set"})
        self.uses_mem = self.uses_pages or any(
            op in ("v128.load", "v128.store") or "atomic" in op
            or op.startswith("memory.") for op in ops
        )

    # -- emission helpers ------------------------------------------------
    def bind(self, obj) -> str:
        """Name under which ``obj`` is visible to the generated code."""
        name = self._bound.get(id(obj))
        if name is None:
            name = f"_k{len(self._bound)}"
            self._bound[id(obj)] = name
            self.ns[name] = obj
        return name

    def emit(self, line: str) -> None:
        if self.body is not None:
            self.body.append(line)
        else:
            self.lines.append("    " * self.ind + line)

    def indent(self) -> None:
        self.ind += 1
        if self.ind > MAX_PY_INDENT:
            raise _TooDeep

    def dedent(self) -> None:
        if self.lines[-1].endswith(":"):
            self.emit("pass")
        self.ind -= 1

    def materialize(self, v: _Val) -> _Val:
        """Evaluate ``v`` now into a fresh temp (effects stay in order)."""
        index = self.ntemp
        self.ntemp += 1
        self.emit(f"_t{index} = {v.reduced().expr}")
        return _Val(f"_t{index}", temp=index, atom=True)

    def pop(self) -> _Val:
        """Pop the top entry as its canonical wasm value."""
        return self.sym.pop().reduced()

    def push(self, expr: str, *operands: _Val, wraps=None) -> None:
        used = frozenset().union(*(o.used for o in operands))
        temp = max((o.temp for o in operands), default=-1)
        v = _Val(expr, used, temp, wraps=wraps)
        self.sym.append(self.materialize(v) if len(expr) > _MAX_EXPR else v)

    def push_now(self, expr: str) -> None:
        self.sym.append(self.materialize(_Val(expr)))

    def as_atom(self, v: _Val) -> _Val:
        """``v`` as something cheap to mention more than once."""
        return v if v.atom else self.materialize(v)

    def spill_local(self, index: int) -> None:
        """Materialise pending entries that read local ``index`` before it
        is overwritten."""
        for i, v in enumerate(self.sym):
            if index in v.used:
                self.sym[i] = self.materialize(v)
        self.sb_written.add(index)

    def slots(self, base: int, n: int) -> list[_Val]:
        return [_Val(f"s{base + k}", atom=True) for k in range(n)]

    def carry(self, base: int, n: int) -> None:
        """Copy the top ``n`` entries into the slots starting at ``base``
        (one tuple assignment, so slot-to-slot moves cannot clobber)."""
        vals = self.sym[len(self.sym) - n:] if n else []
        moves = [(f"s{base + k}", v.expr) for k, v in enumerate(vals)
                 if v.expr != f"s{base + k}"]
        if moves:
            self.emit(f"{', '.join(m[0] for m in moves)} = "
                      f"{', '.join(m[1] for m in moves)}")

    # -- superblocks -----------------------------------------------------
    def open_sb(self, pc: int) -> None:
        # Between superblocks every entry is an atom. Slots are assigned
        # only there (carry) and are not tracked in ``_Val.used``, so a
        # pending expression that outlived its superblock could read a
        # slot after a carry has overwritten it.
        assert all(v.atom for v in self.sym), "pending entry between superblocks"
        code = self.code
        end = pc
        while True:
            end += 1
            if code[end - 1][0] in _TERMINATORS or end in self.joins:
                break
        self.sb = (pc, end)
        self.sb_temp0 = self.ntemp
        self.sb_entry = [v.expr for v in self.sym]
        self.sb_written = set()
        self.body = []

    def close_sb(self, operands: int = 0) -> None:
        """End the open superblock. The top ``operands`` entries feed its
        terminator and may stay pending if the metered arm can evaluate
        them too; everything else lives on and must be an atom."""
        start, end = self.sb
        keep = len(self.sym) - operands
        for i, v in enumerate(self.sym):
            if not v.atom and (i < keep or v.temp >= self.sb_temp0):
                v = self.materialize(v)
            self.sym[i] = v.reduced()
        body, self.body = self.body, None
        cost = end - start
        term = 1 if self.code[end - 1][0] in _TERMINATORS else 0
        slow = [
            f"_S = [{', '.join(self.sb_entry)}]",
            f"_L = [{', '.join(f'L{i}' for i in range(self.n_locals))}]",
            f"lim, ex = inst._run_metered(_code, {start}, {end - term}, "
            f"{term}, _S, _L, lim, ex - {cost})",
        ]
        slow += [f"L{i} = _L[{i}]" for i in sorted(self.sb_written)]
        slow += [f"{v.expr} = _S[{i}]" for i, v in enumerate(self.sym)
                 if v.atom and v.temp >= self.sb_temp0]
        self.emit(f"ex += {cost}")
        if body:
            self.emit("if ex <= lim:")
            self.lines.extend("    " * (self.ind + 1) + l for l in body)
            self.emit("else:")
        else:
            self.emit("if ex > lim:")
        self.lines.extend("    " * (self.ind + 1) + l for l in slow)

    # -- control ---------------------------------------------------------
    def open_while(self) -> int:
        self.emit("while True:")
        self.indent()
        self.pyloops.append(set())
        if len(self.pyloops) > MAX_PY_LOOPS:
            raise _TooDeep
        return len(self.pyloops) - 1

    def close_while(self) -> None:
        """Close the innermost Python loop and route any pending
        multi-level branch: to the loop now innermost, or further out."""
        self.dedent()
        escapes = self.pyloops.pop()
        if not escapes:
            return
        here = len(self.pyloops)  # ``code >> 1`` of the loop now innermost
        arms = [(f"_br == {c}", ["_br = 0", "continue" if c & 1 else "break"])
                for c in sorted(escapes) if c >> 1 == here]
        outer = {c for c in escapes if c >> 1 != here}
        if outer:
            self.pyloops[-1] |= outer
            arms.append(("", ["break"]))
        self.emit("if _br:")
        self.indent()
        for k, (cond, lines) in enumerate(arms):
            if len(arms) > 1:
                self.emit("else:" if k == len(arms) - 1 else
                          f"{'el' if k else ''}if {cond}:")
                self.indent()
            for line in lines:
                self.emit(line)
            if len(arms) > 1:
                self.dedent()
        self.dedent()

    def target(self, depth: int) -> _Frame | None:
        return self.ctrl[-1 - depth] if depth < len(self.ctrl) else None

    def arity(self, frame: _Frame | None) -> int:
        if frame is None:
            return len(self.fn.type.results)
        return frame.nparams if frame.kind == "loop" else frame.nresults

    def flush(self) -> None:
        """Write the local meters back to the instance."""
        self.emit("inst.instructions_executed += ex")
        self.emit("if lim is not _UNMETERED: inst._fuel = lim - ex")

    def sync(self) -> None:
        """Re-read the fuel budget after the runtime may have changed it."""
        self.emit("lim = inst._fuel")
        self.emit("if lim is None: lim = _UNMETERED")
        self.emit("ex = 0")
        if self.uses_pages:
            self.emit("npg = len(pages)")

    def jump(self, frame: _Frame | None) -> None:
        """Transfer to ``frame``'s label, carrying its values."""
        n = self.arity(frame)
        if frame is None:
            self.flush()
            vals = self.sym[len(self.sym) - n:] if n else []
            self.emit(f"return [{', '.join(v.expr for v in vals)}]")
            return
        self.carry(frame.base, n)
        kind = "continue" if frame.kind == "loop" else "break"
        innermost = len(self.pyloops) - 1
        if frame.py == innermost:
            self.emit(kind)
            return
        code = 2 * (frame.py + 1) + (kind == "continue")
        for loop in self.pyloops[frame.py + 1:]:
            loop.add(code)
        self.uses_br = True
        self.emit(f"_br = {code}")
        self.emit("break")

    def die(self) -> None:
        self.live = False
        self.dead_depth = 0

    def end(self, pc: int) -> None:
        frame = self.ctrl.pop()
        live = self.live
        if frame.kind == "if":
            # Both arms meet here (the ``end`` of an ``if`` is a join):
            # results travel in slots and ``end`` is charged after them.
            if live:
                self.carry(frame.base, frame.nresults)
            self.dedent()
            if not (live or frame.end_live or not frame.has_else
                    or frame.py is not None):
                return
            self.live = True
            self.sym = frame.below + self.slots(frame.base, frame.nresults)
            self.open_sb(pc)
            if frame.py is not None:
                self.close_sb()
                self.emit("break")
                self.close_while()
        elif frame.owns:
            if live:
                if self.body is None:
                    self.open_sb(pc)
                self.close_sb()
                if frame.kind == "block":
                    self.carry(frame.base, frame.nresults)
                self.emit("break")
            self.close_while()
            if frame.kind == "block":
                self.live = True
                self.sym = frame.below + self.slots(frame.base, frame.nresults)
        elif live and self.body is None:
            self.open_sb(pc)  # an elided label: ``end`` only costs fuel

    def else_(self) -> None:
        frame = self.ctrl[-1]
        if self.live:
            self.close_sb(frame.nresults)
            self.carry(frame.base, frame.nresults)
            frame.end_live = True
        self.dedent()
        self.emit("else:")
        self.indent()
        self.sym = frame.below + self.slots(frame.base, frame.nparams)
        self.live = True

    # -- the walk --------------------------------------------------------
    def run(self) -> str:
        for pc, ins in enumerate(self.code):
            op = ins[0]
            if not self.live:
                # Stack-polymorphic dead code: skip to the ``end``/``else``
                # that closes the innermost frame entered live.
                if op in _OPENERS:
                    self.dead_depth += 1
                elif op == "end":
                    if self.dead_depth:
                        self.dead_depth -= 1
                    else:
                        self.end(pc)
                elif op == "else" and not self.dead_depth:
                    self.else_()
                continue
            if self.body is not None and pc in self.joins:
                self.close_sb()
            if op == "end":
                self.end(pc)
                continue
            if self.body is None:
                if pc in self.targeted and op != "if" and pc not in self.merged:
                    if op == "loop" and ins[2]:
                        base = len(self.sym) - ins[2]
                        self.carry(base, ins[2])
                        self.sym[base:] = self.slots(base, ins[2])
                    self.open_while()
                self.open_sb(pc)
            self.lower(pc, ins)
        return self.assemble()

    def assemble(self) -> str:
        fn = self.fn
        n_params = len(fn.type.params)
        head = [
            f"def f(inst, depth{''.join(f', L{i}' for i in range(n_params))}):",
            "    if depth >= inst.call_depth_limit:",
            "        raise _CallStackExhausted("
            "f'call depth exceeded {inst.call_depth_limit}')",
            "    lim = inst._fuel",
            "    if lim is None: lim = _UNMETERED",
            "    ex = 0",
        ]
        if self.uses_mem:
            head.append("    mem = inst.memory")
        if self.uses_pages:
            head.append("    pages = mem.pages")
            head.append("    npg = len(pages)")
        if self.uses_glb:
            head.append("    G = inst.globals")
        for i, t in enumerate(fn.local_types, n_params):
            zero = default_value(t)
            head.append(f"    L{i} = "
                        f"{self.bind(zero) if isinstance(zero, bytes) else zero!r}")
        if self.uses_br:
            head.append("    _br = 0")
        return "\n".join(head + self.lines) + "\n"

    # -- per-instruction lowering ------------------------------------------
    def addr(self, base: _Val, off: int) -> str:
        return f"{base.expr} + {off}" if off else base.expr

    def page_access(self, op: str, ins, size: int) -> tuple[str, str]:
        """Pop an address and split it into page ``_p`` and offset ``_o``
        for an inlined access (an atomic one traps here if unaligned).
        Returns the single-page hit test and the canonical address to hand
        the typed access on a miss."""
        a = self.sym.pop()
        if a.wraps and not ins[1]:
            # A hit implies 0 <= _a < 2**32: the owed mask would change
            # nothing, so only the miss path pays for it.
            self.emit(f"_a = {a.expr}")
            low, address = "0 <= ", f"_a & {a.wraps}"
        else:
            self.emit(f"_a = {self.addr(a.reduced(), ins[1])}")
            low, address = "", "_a"
        if "atomic" in op:
            self.emit(f"if _a & {size - 1}: mem._check_aligned({address}, {size})")
        self.emit("_p = _a >> 16")
        self.emit(f"_o = _a & {PAGE_SIZE - 1}")
        return f"_o <= {PAGE_SIZE - size} and {low}_p < npg", address

    def new_temps(self, n: int) -> list[_Val]:
        """Temps a call's results land in (plain atoms once assigned)."""
        self.ntemp += n
        return [_Val(f"_t{i}", temp=i, atom=True)
                for i in range(self.ntemp - n, self.ntemp)]

    def emit_call(self, callee: str, nresults: int) -> None:
        """Flush the meters, call, re-read them, push the results."""
        results = self.new_temps(nresults)
        self.flush()
        lhs = "".join(f"{r.expr}, " for r in results)
        self.emit(f"{lhs}= {callee}" if lhs else callee)
        self.sym.extend(results)
        self.sync()

    def pop_args(self, n: int) -> str:
        args = self.sym[len(self.sym) - n:] if n else []
        del self.sym[len(self.sym) - n:]
        return "[" + ", ".join(v.expr for v in args) + "]"

    def lower(self, pc: int, ins) -> None:
        op = ins[0]
        sym = self.sym
        if op == "local.get":
            sym.append(_Val(f"L{ins[1]}", frozenset((ins[1],))))
        elif op == "local.set":
            v = self.pop()
            self.spill_local(ins[1])
            self.emit(f"L{ins[1]} = {v.expr}")
        elif op == "local.tee":
            v = self.as_atom(self.pop())
            self.spill_local(ins[1])
            self.emit(f"L{ins[1]} = {v.expr}")
            sym.append(v)
        elif op in CONST_OPS:
            k = ins[1]
            if isinstance(k, bytes) or not math.isfinite(k):
                # v128, nan and inf have no literal: bind the object.
                text = self.bind(k)
            else:
                text = repr(k) if repr(k)[0] != "-" else f"({k!r})"
            sym.append(_Val(text, atom=True))
        elif op in _WRAPPING:
            b = sym.pop()
            a = sym.pop()
            kind = op[4:]
            if kind in ("add", "sub", "mul", "shl") or (
                (a.wraps and b.wraps) if kind == "and" else (a.wraps or b.wraps)
            ):
                wraps = _WRAPPING[op]
            else:
                wraps = None
            self.push(_INLINE_BINOPS[op](a.expr, b.expr), a, b, wraps=wraps)
        elif op in BINOPS:
            b = self.pop()
            a = self.pop()
            tpl = _INLINE_BINOPS.get(op)
            if tpl is not None:
                self.push(tpl(a.expr, b.expr), a, b)
            elif op in _TRAPPING_OPS:
                self.push_now(f"{self.bind(BINOPS[op])}({a.expr}, {b.expr})")
            else:
                self.push(f"{self.bind(BINOPS[op])}({a.expr}, {b.expr})", a, b)
        elif op in UNOPS:
            a = self.pop()
            tpl = _INLINE_UNOPS.get(op)
            if tpl is not None:
                self.push(tpl(a.expr), a)
            elif op in _TRAPPING_OPS:
                self.push_now(f"{self.bind(UNOPS[op])}({a.expr})")
            else:
                self.push(f"{self.bind(UNOPS[op])}({a.expr})", a)
        elif op in INLINE_LOADS:
            unpack, fix = INLINE_LOADS[op]
            ty, size, signed = LOAD_OPS[op]
            hit, address = self.page_access(op, ins, size)
            miss = (f"mem.load_float({address}, {size})" if ty.is_float else
                    f"mem.load_int({address}, {size}, {signed}){fix}")
            self.push_now(f"{self.bind(unpack)}(pages[_p].view, _o)[0]{fix} "
                          f"if {hit} else {miss}")
        elif op == "v128.load":
            self.push_now(f"mem.load_v128({self.addr(self.pop(), ins[1])})")
        elif op in INLINE_STORES:
            pack, fix = INLINE_STORES[op]
            ty, size = STORE_OPS[op]
            v = self.as_atom(self.pop())
            hit, address = self.page_access(op, ins, size)
            self.emit(f"if {hit} and pages[_p].writable:")
            self.emit(f"    {self.bind(pack)}(pages[_p].view, _o, {v.expr}{fix})")
            self.emit("else:")
            self.emit(f"    mem.store_{'float' if ty.is_float else 'int'}"
                      f"({address}, {v.expr}, {size})")
        elif op == "v128.store":
            v = self.pop()
            self.emit(f"mem.store_v128({self.addr(self.pop(), ins[1])}, {v.expr})")
        elif op in SIMD_EXTRACT_OPS:
            a = self.pop()
            self.push(f"{self.bind(SIMD_EXTRACT_OPS[op])}({a.expr}, {ins[1]})", a)
        elif op in SIMD_REPLACE_OPS:
            x = self.pop()
            a = self.pop()
            self.push(f"{self.bind(SIMD_REPLACE_OPS[op])}"
                      f"({a.expr}, {x.expr}, {ins[1]})", a, x)
        elif op in ATOMIC_RMW_OPS:
            _ty, size, kind = ATOMIC_RMW_OPS[op]
            v = self.pop()
            a = self.pop()
            self.push_now(f"mem.atomic_rmw({self.addr(a, ins[1])}, {v.expr}, "
                          f"{size}, {kind!r})")
        elif op in ATOMIC_CMPXCHG_OPS:
            _ty, size = ATOMIC_CMPXCHG_OPS[op]
            r = self.pop()
            e = self.pop()
            a = self.pop()
            self.push_now(f"mem.atomic_cmpxchg({self.addr(a, ins[1])}, "
                          f"{e.expr}, {r.expr}, {size})")
        elif op == "memory.atomic.notify":
            c = self.pop()
            a = self.pop()
            self.push_now(f"{self.bind(atomic_notify)}"
                          f"(inst, mem, {self.addr(a, ins[1])}, {c.expr})")
        elif op == "drop":
            self.pop()
        elif op == "select":
            c = self.pop()
            b = self.pop()
            a = self.pop()
            self.push(f"({a.expr} if {_test(c.expr)} else {b.expr})", a, b, c)
        elif op == "global.get":
            self.push_now(f"G[{ins[1]}].value")
        elif op == "global.set":
            self.emit(f"G[{ins[1]}].value = {self.pop().expr}")
        elif op == "memory.size":
            self.push_now("mem.size_pages")
        elif op == "memory.grow":
            self.push_now(f"mem.grow({self.pop().expr}) & {_M32}")
            if self.uses_pages:
                self.emit("npg = len(pages)")
        elif op == "nop":
            pass
        elif op == "block":
            frame = _Frame("block", len(sym) - ins[3], ins[3], ins[2])
            if pc in self.targeted and pc not in self.merged:
                frame.py = len(self.pyloops) - 1
                frame.owns = True
                frame.below = sym[:frame.base]
            self.ctrl.append(frame)
        elif op == "loop":
            frame = _Frame("loop", len(sym) - ins[2], ins[2], 0)
            if pc in self.targeted:
                frame.py = len(self.pyloops) - 1
                if pc - 1 in self.merged:
                    outer = self.ctrl[-1]
                    outer.py = frame.py
                    outer.owns = True
                    outer.below = sym[:outer.base]
                else:
                    frame.owns = True
            self.ctrl.append(frame)
        elif op == "if":
            self.close_sb(1 + ins[4])
            cond = self.pop()
            frame = _Frame("if", len(sym) - ins[4], ins[4], ins[3])
            self.carry(frame.base, ins[4])
            sym[frame.base:] = self.slots(frame.base, ins[4])
            frame.below = sym[:frame.base]
            frame.has_else = ins[1] != ins[2]
            if pc in self.targeted:
                frame.py = self.open_while()
            self.emit(f"if {_test(cond.expr)}:")
            self.indent()
            self.ctrl.append(frame)
        elif op == "else":
            self.else_()
        elif op == "br":
            frame = self.target(ins[1])
            self.close_sb(self.arity(frame))
            self.jump(frame)
            self.die()
        elif op == "br_if":
            frame = self.target(ins[1])
            # Only the condition may stay pending: the carried values live
            # on when the branch is not taken (see open_sb's invariant).
            self.close_sb(1)
            self.emit(f"if {_test(self.pop().expr)}:")
            self.indent()
            self.jump(frame)
            self.dedent()
        elif op == "br_table":
            depths = sorted({*ins[1], ins[2]})
            self.close_sb(1 + self.arity(self.target(ins[2])))
            index = self.as_atom(self.pop()).expr
            if len(depths) > 1:
                self.emit(f"_d = {self.bind(tuple(ins[1]))}[{index}] "
                          f"if {index} < {len(ins[1])} else {ins[2]}")
            for k, d in enumerate(depths):
                if len(depths) > 1:
                    self.emit("else:" if k == len(depths) - 1 else
                              f"{'el' if k else ''}if _d == {d}:")
                    self.indent()
                self.jump(self.target(d))
                if len(depths) > 1:
                    self.dedent()
            self.die()
        elif op == "return":
            self.close_sb(self.arity(None))
            self.jump(None)
            self.die()
        elif op == "unreachable":
            self.close_sb()
            self.emit("raise _Unreachable('unreachable executed')")
            self.die()
        elif op == "call":
            ftype = self.module.func_type(ins[1])
            self.close_sb(len(ftype.params))
            args = self.pop_args(len(ftype.params))
            self.emit_call(f"inst._call({ins[1]}, {args}, depth + 1)",
                           len(ftype.results))
        elif op == "call_indirect":
            expected = ins[1]
            self.close_sb(1 + len(expected.params))
            index = self.pop()
            # Table and type checks trap before the meters are flushed,
            # as in the interpreter.
            self.emit(f"_ci, _cf = inst._resolve_indirect("
                      f"{self.bind(expected)}, {index.expr})")
            args = self.pop_args(len(expected.params))
            self.emit_call(f"_ci._call(_cf, {args}, depth + 1)",
                           len(expected.results))
        elif op == "memory.atomic.wait32":
            self.close_sb(2)
            e = self.pop()
            a = self.pop()
            # Listed so it unpacks like a one-result call.
            self.emit_call(f"[{self.bind(atomic_wait32)}(inst, mem, "
                           f"{self.addr(a, ins[1])}, {e.expr})]", 1)
        else:  # pragma: no cover - validation admits only known ops
            raise AssertionError(f"cannot compile opcode {op!r}")


def lower_function(fn, module):
    """Compile one flat function to its Python form, a callable
    ``f(inst, depth, *args) -> list`` of results; None when the function
    nests deeper than CPython can compile."""
    lowering = _Lowering(fn, module)
    try:
        source = lowering.run()
    except _TooDeep:
        return None
    ns = lowering.ns
    ns.update(
        _code=fn.code, _UNMETERED=UNMETERED,
        _CallStackExhausted=CallStackExhausted, _Unreachable=UnreachableExecuted,
    )
    exec(compile(source, f"<compiled:{fn.name}>", "exec"), ns)
    return ns["f"]
