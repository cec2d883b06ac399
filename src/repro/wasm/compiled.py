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
  reference interpreter. Division is the Python operator where that is the
  wasm result (signed: ``a < 2**(n-1)`` and ``0 < b < 2**(n-1)``; unsigned
  and f64: ``b`` nonzero) and the ``BINOPS`` function, with its trap, else.
  Values that are live across a control edge sit in ``s<height>`` (stack
  heights are static after validation).

* **Fuel is charged once per superblock** (a maximal straight-line flat
  range ending at a control transfer, a call, ``memory.atomic.wait32`` or a
  join): ``ex += <count>``, tested against ``lim`` (fuel at the last sync,
  or :data:`UNMETERED`). Both are Python locals written back to the
  instance only where the interpreter writes its own: calls, ``wait32``,
  exhaustion, exit; a trap drops them as it drops the interpreter's. When
  fuel cannot cover the superblock, its ``else`` arm spills locals and
  stack, runs *that superblock only* through the interpreter loop
  (:meth:`Instance._run_metered`), reloads and carries on — so ``OutOfFuel``
  fires at the same instruction with the same effects, and a refuel hook
  (guest-thread preemption) resumes compiled code. The arm charges the
  superblock's closing control instruction; the shared code evaluates it.

* **The single-page memory fast path is inline**: bounds, page-straddle
  and (stores) ``Page.writable`` tests sit in the generated code; a miss
  calls the typed :class:`~repro.wasm.memory.LinearMemory` access the
  interpreter uses (COW, dirty-tracking ``notify``, the trap).
  ``npg`` caches ``len(pages)``; pages are removed only between calls (a
  Faaslet's reset), so a stale value only sends an access down that path.

* **A counted loop checks its range once per entry.** For the ``for``
  shape (counter ``iv`` stepped last by ``+c``, exit test ``iv < n`` or
  ``<=``, no call, grow or atomic access, addresses ``B + S*iv`` over
  locals the loop never writes) a guard ``_h`` checks one iteration,
  ``z + c < 2**31`` for the last value ``z``, each access's page and
  in-page offset at ``iv`` and ``z``, and stored-to pages ``writable`` and
  ``not shared``. On a hit, when an iteration is one superblock, the loop's
  first statement is one pass ``for iv in range(iv, min(iv + (lim - ex) //
  K * c, z + 1), c)`` over the body alone: only the iterations fuel pays for
  (``K`` each, charged after the pass), on views bound once, f64/i32/i64
  accesses as items of a typed ``view.cast`` view (little-endian hosts; base
  and stride aligned by the guard). A body with an ``if`` runs whole
  iterations instead, its exit test and step on plain ints, while ``ex + K
  <= lim``. A 2-deep *nest* is the same plan over a list of counters: an
  outer loop whose body is superblocks and inner counted loops, each from a
  constant and bounded by locals the nest never writes, every access affine
  in both counters. Its guard boxes each access at every corner of the
  counters' ranges; its pass runs whole outer iterations (``K`` adds each
  inner trip count times its cost), each inner loop as its own ``for j in
  range(j0, z_j + 1, c_j)``. The metered arm, where another guest thread
  can run, is never inside; after the pass, today's code carries on.

* **A pass streams its loads and tests no store.** In an innermost pass
  loop, a typed load before the body's first store, at an item stride
  ``t > 0`` in the counter (an ``_f`` the guard tests positive), is the next
  item of the slice ``view[B + lo*t : B + z*t + 1 : t*c]`` zipped after the
  counter's range: the range ends the loop first, and a ``memoryview``
  iterator reads an item when its iteration starts, after every earlier
  store. A store is a plain item store: only ``reprotect_mappings`` (shared
  pages) and a capture's ``freeze_pages`` (between calls, never with live
  guest threads) clear ``Page.writable``, so a page the guard found
  writable and private stays so for the call; a loop storing to mapped
  state misses its guard and runs today's per-store test.

* **A pass lowers with what its guard proved.** In it each counter lies in
  ``[start, z]`` within ``[0, 2**31)``. The guard gains, per invariant local
  the body computes with, ``0 <= L < 2**31`` (``0 < L`` for a divisor) and,
  per ``+``/``*`` expression over counters, such locals and constants, one
  test at the box's upper corner (:meth:`_Lowering.proved`). A value so
  bounded loses its mask and signed reading; a ``div``/``rem`` of one by a
  proved local or constant, and an ``f64.div`` by ``float()`` of one, lose
  their trap or zero test; pure expressions over invariant locals are
  computed once, before the pass. SFI holds because a guard miss is
  today's code and :mod:`repro.wasm.verify` (trusted, like the validator)
  checks every function before it compiles; what it refuses, or what passes
  CPython's 20 nested loops or ~100 indentation levels, runs on the
  interpreter (``wasm.compile_fallbacks{cause="unverified"|"too-deep"}``).
"""

from __future__ import annotations

import ast
import gc
import math
import struct
import sys
from collections import namedtuple
from itertools import product

from .codecache import GLOBAL_CODE_CACHE
from .errors import CallStackExhausted, UnreachableExecuted
from .futex import atomic_notify, atomic_wait32
from .instructions import (
    ATOMIC_CMPXCHG_OPS,
    ATOMIC_RMW_OPS,
    CONST_OPS,
    INSTR_SIGS,
    LOAD_OPS,
    STORE_OPS,
)
from .memory import INLINE_LOADS, INLINE_STORES
from .ops import BINOPS, UNOPS
from .types import PAGE_SIZE
from .values import default_value
from .verify import Unverified, verify

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
    # f32 needs the to_f32 rounding call, so it is not inlined.
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
    "i64.extend_i32_u": lambda a: a,  # operands are canonical (see _Val)
    "i64.extend_i32_s": lambda a: f"({_signed(a, _S32)} & {_M64})",
    "f64.convert_i32_s": lambda a: f"float({_signed(a, _S32)})",
    "f64.convert_i32_u": lambda a: f"float({a})",
    "f64.convert_i64_s": lambda a: f"float({_signed(a, _S64)})",
    "f64.convert_i64_u": lambda a: f"float({a} & {_M64})",
    "f64.promote_f32": lambda a: f"({a})",
}

#: Unary operators that can trap; their results are materialised eagerly so
#: the trap fires in flat-code order relative to stores and other effects.
_TRAPPING_OPS = frozenset(f"{t}.trunc_f{s}_{g}" for t in ("i32", "i64")
                          for s in (32, 64) for g in ("s", "u"))

#: op → (Python operator, signed bias or ""): the operator is the wasm result
#: when the divisor is nonzero and, for a signed op, both operands are below
#: the bias; otherwise the BINOPS function runs (traps; f64.div by ±0.0).
_DIVISION = {f"{t}.{o}{g}": (pyop, bias if g == "_s" else "") for t, bias in (("i32", _S32), ("i64", _S64))
             for o, pyop in (("div", "//"), ("rem", "%")) for g in ("_s", "_u")} | {"f64.div": ("/", "")}
#: i32 readings whose unsigned form is theirs for operands in [0, 2**31).
_AS_UNSIGNED = {f"i32.{c}_s": f"i32.{c}_u" for c in ("lt", "gt", "le", "ge")} | {
    f"{t}_i32_s": f"{t}_i32_u" for t in ("i64.extend", "f64.convert")}


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
    applies it, so a popped i32 is canonical, in [0, 2**32). ``poly`` (a
    polynomial over locals with non-negative coefficients, built by ``+``,
    ``*`` and ``<<`` from locals and constants in [0, 2**31)) bounds an i32:
    masked or not, its value lies in [0, ``poly`` at the values its locals
    had when it was computed]. ``of`` is :func:`_exact` of the i32 an f64
    was converted from.
    """

    __slots__ = ("expr", "used", "temp", "atom", "wraps", "poly", "of")

    def __init__(self, expr, used=frozenset(), temp=-1, atom=False, wraps=None, poly=None, of=None):
        self.expr, self.used, self.temp, self.atom = expr, used, temp, atom
        self.wraps, self.poly, self.of = wraps, poly, of

    def reduced(self) -> "_Val":
        if self.wraps is None:
            return self
        return _Val(f"({self.expr} & {self.wraps})", self.used, self.temp, poly=self.poly)


class _Frame:
    """One open ``block``/``loop``/``if``. ``py`` indexes the Python loop
    a branch to this label leaves or repeats (None: nothing branches
    here); ``owns`` marks the frame whose ``end`` closes that loop."""

    __slots__ = ("kind", "base", "nparams", "nresults", "below",
                 "py", "owns", "has_else", "end_live")

    def __init__(self, kind, base, nparams, nresults):
        self.kind, self.base, self.nparams, self.nresults = kind, base, nparams, nresults
        self.below = self.py = None
        self.owns = self.has_else = self.end_live = False


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
    return targeted, merged, joins, end_of


#: Exit compares of a counted loop, ``iv <op> bound``, as Python operators.
_EXIT = {"i32.lt_s": "<", "i32.lt_u": "<", "i32.le_s": "<=", "i32.le_u": "<="}
_UNHOISTABLE = frozenset("call call_indirect memory.grow loop br br_if br_table return "
                         "unreachable".split())
#: What an exit test may run before its compare for the loop to take a pass.
_PURE = frozenset("local.get i32.const i32.add i32.sub i32.mul i32.shl".split())
#: Accesses a pass makes through a typed view (``memoryview.cast``) of a page:
#: whole little-endian f64/i32/i64 items, on a host whose native ones are those.
_TYPED = {f"{t}.{a}": c for t, c in zip(["f64", "i32", "i64"], "dIQ") for a in ["load", "store"]
          } if sys.byteorder == "little" and [struct.calcsize(c) for c in "dIQ"] == [8, 4, 8] else {}
_SETS = ("local.set", "local.tee")
#: One loop of a nest: counter, step, exit compare's pc, bound, inner start, pcs, one superblock?
_Level = namedtuple("_Level", "iv step cmp bound start pc stop one")
_ARITY = dict.fromkeys(CONST_OPS, (0, 1)) | {"local.set": (1, 0), "local.tee": (1, 1),
                                             "global.get": (0, 1), "global.set": (1, 0),
                                             "drop": (1, 0), "select": (3, 1)}


def _ring(op: str, a, b):
    """``a op b`` over polynomials ({sorted local indices: coefficient}) for
    the i32 ring operators, which commute with reduction mod 2**32."""
    if a is None or b is None or op == "i32.shl" and b.keys() - {()}:
        return None
    if op == "i32.shl":
        op, b = "i32.mul", {(): 1 << (b.get((), 0) & 31)}
    out: dict = {}
    for m, k in ([(tuple(sorted(x + y)), i * j) for x, i in a.items() for y, j in b.items()]
                 if op == "i32.mul" else [*a.items(), *((m, k if op == "i32.add" else -k)
                                                        for m, k in b.items())]):
        out[m] = out.get(m, 0) + k
    out = {m: k for m, k in out.items() if k}
    return out if len(out) <= 8 else None


def _exact(v: _Val):
    """``v.poly`` when ``v`` *is* a local or a constant (not only bounded by it)."""
    return v.poly if v.expr.isdigit() or v.expr[0] == "L" and v.expr[1:].isdigit() else None


def _pexpr(p, names={}) -> str:
    """A polynomial as Python source over the canonical locals (or ``names``)."""
    return " + ".join(" * ".join([*(names.get(i, f"L{i}") for i in m), *([str(k)] if k != 1 or not m else [])])
                      for m, k in sorted(p.items())) or "0"


def _split(p, iv):
    """``(alpha, beta)`` with ``p = alpha + beta*iv``; None unless affine in ``iv``."""
    if p is not None and all(m.count(iv) < 2 for m in p):
        return ({m: k for m, k in p.items() if iv not in m},
                {tuple(i for i in m if i != iv): k for m, k in p.items() if iv in m})


def _counted(code, lo, end, inner):
    """``(levels, {access pc: (alpha, {iv: beta})})`` for the loop at ``lo``
    ending at ``end`` if it is a counted loop (module doc): its :class:`_Level`
    and, for a nest, each inner loop's (planned in ``inner``), an access's
    address plus offset being ``alpha + sum(beta*iv)``."""
    tail = code[end - 5:end]
    if [t[0] for t in tail] != ["local.get", "i32.const", "i32.add", "local.set", "br"]:
        return None
    iv, step = tail[0][1], tail[1][1]
    written = {ins[1] for ins in code[lo:end - 5] if ins[0] in _SETS}
    if tail[3][1] != iv or tail[4][1] or not 0 < step < 2**31 or iv in written:
        return None
    stack, frames, acc, bound, cmp_pc, pc, levels, consts = [], [], {}, None, None, lo + 1, [], {}
    while pc < end - 5:
        ins = code[pc]
        op = ins[0]
        if bound is None and op in _EXIT and code[pc + 1:pc + 3] == [("i32.eqz",), ("br_if", 1)] \
                and not frames and stack[:1] == [{(iv,): 1}] and len(stack) == 2 \
                and stack[1] is not None and all(iv not in m for m in stack[1]):
            bound, cmp_pc, stack, pc = stack[1], pc, [], pc + 3  # the exit test
            continue
        if op == "block" and pc + 1 in inner and bound is not None and not stack:  # a nest
            (lv, *deeper), sub = inner[pc + 1]
            start, inside = consts.get(lv.iv), {i[1] for i in code[pc:lv.stop] if i[0] in _SETS}
            if deeper or not lv.one or start is None or not 0 <= start < 2**31 or any(
                    i in written or i == iv for m in lv.bound for i in m):
                return None
            for q, (alpha, betas) in sub.items():
                split = _split(alpha, iv)
                if not split or any(i in written or i == iv for b in (alpha, *betas.values())
                                    for m in b for i in m if b is not alpha or i != iv):
                    return None
                acc[q] = (split[0], {v: b for v, b in ((iv, split[1]), *betas.items()) if b})
            levels.append(lv._replace(start=start))
            consts, pc = {x: c for x, c in consts.items() if x not in inside}, lv.stop
            continue
        if op in _UNHOISTABLE or "atomic" in op:
            return None
        if op in LOAD_OPS or op in STORE_OPS:
            split = _split(stack[-1 if op in LOAD_OPS else -2], iv)
            alpha = split and _ring("i32.add", split[0], {(): ins[1]})
            if bound is None or alpha is None:
                return None
            acc[pc] = (alpha, {iv: split[1]} if split[1] else {})
        if op in _SETS:  # the constants inner loops may start from
            consts[ins[1]] = stack[-1].get((), 0) if op == "local.set" and stack[-1] is not None \
                and stack[-1].keys() <= {()} else None
        if op == "local.get":
            stack.append(None if ins[1] in written else {(ins[1],): 1})
        elif op == "i32.const":
            stack.append({(): ins[1]} if ins[1] else {})
        elif op in ("i32.add", "i32.sub", "i32.mul", "i32.shl"):
            stack[-2:] = [_ring(op, *stack[-2:])]
        elif op in ("block", "if"):  # values crossing a label become unknown
            del stack[len(stack) - (op == "if"):]
            nparams, nres = (ins[3], ins[2]) if op == "block" else (ins[4], ins[3])
            frames.append((len(stack) - nparams, nparams, nres))
            stack[frames[-1][0]:] = [None] * nparams
        elif op in ("else", "end"):
            base, nparams, nres = frames[-1] if op == "else" else frames.pop()
            stack[base:] = [None] * (nparams if op == "else" else nres)
        else:
            n_in, n_out = _ARITY.get(op) or map(len, INSTR_SIGS[op])
            del stack[len(stack) - n_in:]
            stack += [None] * n_out
        pc += 1
    one = bound is not None and all(code[k][0] in _PURE for k in range(lo + 1, cmp_pc)) and all(
        code[k][0] != "if" for k in range(cmp_pc + 3, end - 5))
    if bound is None or stack or frames or levels and not one:
        return None
    return [_Level(iv, step, cmp_pc, bound, None, lo, end + 2, one), *levels], acc


class _Lowering:
    """Lower one function's flat code to Python source (see module doc)."""

    def __init__(self, fn, module):
        self.fn, self.module, self.code = fn, module, fn.code
        self.targeted, self.merged, self.joins, end_of = _analyse(fn.code)
        #: Counted loops and nests (loop pc → plan), inner first, and the one being hoisted.
        self.loops = {}
        for pc in sorted(self.merged, reverse=True):
            if plan := _counted(fn.code, pc + 1, end_of[pc] - 1, self.loops):
                self.loops[pc + 1] = plan
        self.hoist, self.hoisted, self.streams = None, {}, {}
        #: In a pass: the locals its nest writes (None elsewhere), each counter in range → its
        #: last value, and its facts' needs: invariant locals (True: a divisor), corner tests
        #: and the invariant expressions computed once, before it.
        self.written, self.zs, self.need, self.corners, self.pre = None, {}, {}, {}, {}
        self.ns, self._bound, self.lines, self.ind = {}, {}, [], 1  # _bound: id → name in ns
        self.sym: list[_Val] = []
        self.ntemp, self.ctrl = 0, []
        #: Open Python loops, innermost last: each the set of ``_br``
        #: codes that can leave it on the way to an outer loop.
        self.pyloops: list[set] = []
        self.live, self.dead_depth, self.uses_br = True, 0, False
        #: Fast-arm lines of the open superblock (None: between two), its pcs, first
        #: temp, entry stack and the locals it writes.
        self.body: list[str] | None = None
        self.sb, self.sb_temp0, self.sb_entry, self.sb_written = (0, 0), 0, [], set()
        #: What the prologue has to fetch from the instance.
        ops = {ins[0] for ins in fn.code}
        self.uses_pages = any(op in INLINE_LOADS or op in INLINE_STORES for op in ops)
        self.uses_glb = bool(ops & {"global.get", "global.set"})
        self.uses_mem = self.uses_pages or any("atomic" in op or op.startswith("memory.") for op in ops)

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
        index, self.ntemp = self.ntemp, self.ntemp + 1
        self.emit(f"_t{index} = {self.reduce(v).expr}")
        return _Val(f"_t{index}", temp=index, atom=True, poly=v.poly, of=v.of)

    def pop(self) -> _Val:
        """Pop the top entry as its canonical wasm value."""
        return self.reduce(self.sym.pop())

    def reduce(self, v: _Val) -> _Val:
        """``v`` with its owed mask, unless a pass's facts put it in [0, 2**31)."""
        return _Val(v.expr, v.used, v.temp, poly=v.poly) if v.wraps == _M32 and self.proved(v.poly) else v.reduced()

    def proved(self, *polys, pos=False) -> bool:
        """Whether the facts of the pass being lowered put every value bounded
        by ``polys`` in [0, 2**31) and the one ``pos`` bounds in (0, 2**31) (a
        positive constant, or an invariant local); records the guard conjuncts
        that say so (module doc)."""
        if self.written is None or pos is None or None in polys:
            return False
        need, tests = {}, []
        if pos is not False and pos.keys() != {()}:  # else a positive constant
            local = next(iter(pos)) if len(pos) == 1 and 1 in pos.values() else ()
            if len(local) != 1 or local[0] in self.written:
                return False
            need[local[0]] = True
        for p in polys:
            free = {i for m in p for i in m if i not in self.zs}  # the invariant locals
            if free & self.written or not p.keys() - {()} and p.get((), 0) >= 2**31:
                return False
            need |= {i: need.get(i, False) for i in free}
            # One local alone needs no corner: a counter is in range, a local has its conjunct.
            if p.keys() - {()} and not (len(p) == 1 and 1 in p.values() and len(next(iter(p))) == 1):
                tests.append(f"{_pexpr(p, self.zs)} < {_S32}")
        self.need |= {i: self.need.get(i, False) or d for i, d in need.items()}
        self.corners.update(dict.fromkeys(tests))
        return True

    def push(self, expr: str, *operands: _Val, wraps=None, poly=None, of=None) -> None:
        used = frozenset().union(*(o.used for o in operands))
        temp = max((o.temp for o in operands), default=-1)
        v = _Val(expr, used, temp, wraps=wraps, poly=poly, of=of)
        if self.written is not None and temp < 0 and not used & self.written:  # invariant in the pass
            v = _Val(self.pre.setdefault(expr, f"_i{len(self.pre)}"), atom=wraps is None, wraps=wraps, poly=poly, of=of)
        self.sym.append(self.materialize(v) if len(v.expr) > _MAX_EXPR else v)

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
            self.sym[i] = self.reduce(v)
        body, self.body = self.body, None
        cost = end - start
        term = 1 if self.code[end - 1][0] in _TERMINATORS else 0
        used = sorted({ins[1] for ins in self.code[start:end] if ins[0] in ("local.get", *_SETS)})
        slow = [f"_S = [{', '.join(self.sb_entry)}]", f"_L = {{{', '.join(f'{i}: L{i}' for i in used)}}}",
                f"lim, ex = inst._run_metered(_code, {start}, {end - term}, {term}, _S, _L, lim, ex - {cost})"]
        slow += [f"L{i} = _L[{i}]" for i in sorted(self.sb_written)]
        slow += [f"{v.expr} = _S[{i}]" for i, v in enumerate(self.sym) if v.atom and v.temp >= self.sb_temp0]
        if self.hoist:  # the iteration's fuel was checked (a pass: is charged) whole
            if not self.hoist[-1]:
                self.emit(f"ex += {cost}")
            self.lines.extend("    " * self.ind + line for line in body)
            return
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
        self.walk(0, len(self.code))
        return self.assemble()

    def walk(self, start: int, stop: int) -> None:
        for pc in range(start, stop):
            ins = self.code[pc]
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
                if pc in self.loops:
                    if not self.hoist:  # the guarded walk is inside its loop already
                        self.version(pc, self.loops[pc])
                elif pc in self.targeted and op != "if" and pc not in self.merged:
                    if op == "loop" and ins[2]:
                        base = len(self.sym) - ins[2]
                        self.carry(base, ins[2])
                        self.sym[base:] = self.slots(base, ins[2])
                    self.open_while()
                self.open_sb(pc)
            self.lower(pc, ins)

    def version(self, pc: int, plan) -> None:
        """Open the counted loop or nest at ``pc`` behind its guard, its pass (or,
        for a body with an ``if``, its guarded iteration) first (module doc);
        the walk then lowers today's iteration."""
        (top, *inner), acc = plan
        L, h, levels, cmp = f"L{top.iv}", f"_h{pc}", [top, *inner], self.code[top.cmp][0]
        if len(self.pyloops) + len(inner) >= MAX_PY_LOOPS:  # the ``while`` and each ``for``
            raise _TooDeep
        conds, heads, ends, pages, casts, items, strides, self.hoisted, self.streams = [], [], {}, {}, {}, [], {}, {}, {}
        for lv in levels:
            n, z, s, op = f"_n{lv.pc}", f"_z{lv.pc}", L if lv is top else str(lv.start), self.code[lv.cmp][0]
            e = f"({_pexpr(lv.bound)}) & {_M32}"
            heads += [f"{n} = {_signed(e, _S32) if op.endswith('_s') else e}",
                      f"{z} = {s} + ({n}{' - 1' * (_EXIT[op] == '<')} - {s}) // {lv.step} * {lv.step}"]
            conds += [f"{s} {_EXIT[op]} {n}", f"{z} + {lv.step} < {_S32}"]
            ends[f"L{lv.iv}"] = (s, z)
        for q, (alpha, betas) in sorted(acc.items()):  # one page per affine family:
            g = pages.setdefault((frozenset(m for m in alpha if m), frozenset(
                (v, frozenset(b.items())) for v, b in betas.items())), q)
            terms = []  # (counter, byte stride) of each counter the address moves with
            for l, beta in enumerate(betas.get(lv.iv) for lv in levels):
                if beta:
                    c = str(beta[()]) if beta.keys() == {()} else strides.setdefault(_pexpr(beta), f"_m{q}{l}")
                    if c == f"_m{q}{l}":
                        self.emit(f"{c} = {_pexpr(beta)}")
                    terms.append((f"L{levels[l].iv}", c))
            at = lambda vals: "".join(f" + {v} * {c}" for v, (_, c) in zip(vals, terms) if v != "0")
            op, off = self.code[q][:2]
            size, here = (LOAD_OPS.get(op) or STORE_OPS[op])[1], at([x for x, _ in terms])
            if g == q:
                self.emit(f"_p{g} = ({_pexpr(alpha)}{at([ends[x][0] for x, _ in terms])}) >> 16")
                conds.append(f"0 <= _p{g} < npg")
            self.emit(f"_b{q} = {_pexpr(alpha)} - (_p{g} << 16)")
            conds += [f"{off} <= _b{q}{at(c)} <= {PAGE_SIZE - size}" for c in product(*(ends[x] for x, _ in terms))]
            conds += [f"pages[_p{g}].writable", f"not pages[_p{g}].shared"] * (op in STORE_OPS)
            fmt, k, typed = top.one and _TYPED.get(op), size.bit_length() - 1, None
            if fmt and all(c[0] == "_" or not int(c) % size for _, c in terms):  # whole items of a view
                conds += [f"not {x} & {size - 1}" for x in (f"_b{q}", *(c for _, c in terms)) if x[0] == "_"]
                view, items, ts = f"_c{g}{fmt}", items + [f"_e{q} = _b{q} >> {k}"], []
                casts[view] = g
                for l, (x, c) in enumerate(terms):  # each stride in items: a constant, or ``_f = _m >> k``
                    items += [f"_f{q}{l} = {c} >> {k}"] * (c[0] == "_")
                    ts.append(f"_f{q}{l}" if c[0] == "_" else str(int(c) >> k))
                ix = [f" + {x}" if t == "1" else f" + {x} * {t}" for (x, _), t in zip(terms, ts)]
                typed, lv = f"{view}[_e{q}{''.join(ix)}]", [v for v in levels if v.pc < q < v.stop][-1]
                t = ts[-1] if terms and terms[-1][0] == f"L{lv.iv}" else "0"  # its item stride in lv's counter
                # A stream (module doc): a load before the first store of an innermost loop, t > 0.
                if op in LOAD_OPS and (lv is not top or not inner) and (t[0] == "_" or int(t) > 0) \
                        and not any(self.code[p][0] in STORE_OPS for p in range(lv.pc, q)):
                    conds += [f"0 < {terms[-1][1]}"] * (t[0] == "_")
                    b, item = f"_e{q}{''.join(ix[:-1])}", (lambda v: v) if t == "1" else (lambda v: f"{v} * {t}")
                    step = str(int(t) * lv.step) if t[0] != "_" else t if lv.step == 1 else f"{t} * {lv.step}"
                    lo = L if lv is top else lv.start
                    self.streams.setdefault(lv.pc, []).append(
                        (f"_r{q}", f"{view}[{b} + {item(lo)}:{b} + {item(f'_z{lv.pc}')} + 1:{step}]"))
                    typed = f"_r{q}"
            self.hoisted[q] = (f"_v{g}, _b{q}{here}", typed)
        binds = [x for g in pages.values() for x in (f"_v{g} = pages[_p{g}].view", *(
            f"{c} = _v{g}.cast({c[-1]!r})" for c, of in casts.items() if of == g))] + items
        guard = len(self.lines) + len(heads), "    " * self.ind
        for line in heads + [h] + [f"if {h}:"] * bool(pages):  # the guard, once the pass's facts are known
            self.emit(line)
        for line in binds:
            self.emit(f"    {line}")
        self.open_while()
        # One (outer) iteration: each inner loop's trip count times its cost and its last exit test.
        cost = top.stop - 2 - pc + sum(lv.cmp + 1 - lv.pc for lv in inner)
        cost = f"({cost}{''.join(f' + (_z{lv.pc} - {lv.start}) // {lv.step} * {lv.stop - 2 - lv.pc}' for lv in inner)})" \
            if inner else cost
        self.emit(f"if {h} and ex + {cost} <= lim:")
        self.indent()
        saved, first = (list(self.sym), list(self.ctrl), self.ntemp), len(self.lines)
        self.hoist = (top.iv, top.cmp, _cmp(L, f"_n{pc}", _EXIT[cmp]), top.one)
        self.zs, self.need, self.corners, self.pre = {top.iv: f"_z{pc}"}, {}, {}, {}
        if top.one:  # the iterations fuel can pay for, capped at z; charged after
            self.written = {ins[1] for ins in self.code[pc:top.stop] if ins[0] in _SETS}  # facts on
            self.emit(f"_s{pc} = {L}")
            self.for_(pc, L, f"range({L}, min({L} + (lim - ex) // {cost}"
                      f"{f' * {top.step}' * (top.step > 1)}, _z{pc} + 1), {top.step})")
            at = top.cmp + 3
            for lv in inner:  # each inner loop whole, its counter stepped past its z after it
                self.segment(at, lv.pc - 1)
                self.for_(lv.pc, f"L{lv.iv}", f"range({lv.start}, _z{lv.pc} + 1, {lv.step})")
                self.zs[lv.iv] = f"_z{lv.pc}"
                self.segment(lv.cmp + 3, lv.stop - 7)
                del self.zs[lv.iv]
                self.dedent()
                self.emit(f"L{lv.iv} = (L{lv.iv} + {lv.step})")
                at = lv.stop
            self.segment(at, top.stop - 7)
            self.dedent()
            done = f"{L} - _s{pc} + 1" if top.step == 1 else f"({L} - _s{pc}) // {top.step} + 1"
            self.emit(f"ex += ({done}) * {cost}")
            self.emit(f"{L} = ({L} + {top.step})")
        else:
            self.walk(pc, top.stop - 2)
        facts = [f"0 {'<' if d else '<='} L{i} < {_S32}" for i, d in self.need.items()] + [*self.corners]
        k = 2 * len(levels)  # the facts' conjuncts follow the counters' own
        self.lines[guard[0]] = f"{guard[1]}{h} = {' and '.join(dict.fromkeys(conds[:k] + facts + conds[k:]))}"
        self.lines[first:first] = [f"{'    ' * self.ind}{n} = {e}" for e, n in self.pre.items()]
        self.hoist, (self.sym, self.ctrl, self.ntemp), self.live, self.written = None, saved, True, None
        self.dedent()
        self.emit(f"{h} = 0")  # this entry of the loop stays general from here

    def for_(self, pc: int, iv: str, rng: str) -> None:
        """Open a pass's ``for`` over ``rng``, zipped with the streams of the loop at ``pc``."""
        s = self.streams.get(pc)
        self.emit(f"for {iv}{''.join(f', {r}' for r, _ in s)} in zip({rng}, {', '.join(x for _, x in s)}):"
                  if s else f"for {iv} in {rng}:")
        self.indent()

    def segment(self, start: int, stop: int) -> None:
        """Lower straight-line code of a pass, closing its last superblock."""
        self.walk(start, stop)
        if self.body is not None:
            self.close_sb()

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
            head.append(f"    L{i} = {default_value(t)!r}")
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
        if op in _AS_UNSIGNED and self.proved(*(v.poly for v in sym[len(sym) - len(INSTR_SIGS[op][0]):])):
            op = _AS_UNSIGNED[op]
        if op == "local.get":
            sym.append(_Val(f"L{ins[1]}", frozenset((ins[1],)), poly={(ins[1],): 1} if self.written is not None else None))
        elif op == "local.set":
            # The guarded copy's counter stays below 2**31: no mask owed.
            v = sym.pop() if self.hoist and ins[1] == self.hoist[0] else self.pop()
            self.spill_local(ins[1])
            self.emit(f"L{ins[1]} = {v.expr}")
        elif op == "local.tee":
            v = self.as_atom(self.pop())
            self.spill_local(ins[1])
            self.emit(f"L{ins[1]} = {v.expr}")
            sym.append(v)
        elif op in CONST_OPS:
            k = ins[1]
            if not math.isfinite(k):
                # nan and inf have no literal: bind the object.
                text = self.bind(k)
            else:
                text = repr(k) if repr(k)[0] != "-" else f"({k!r})"
            sym.append(_Val(text, atom=True, poly=({(): k} if k else {}) if op == "i32.const" and 0 <= k < 2**31 else None))
        elif op in _WRAPPING:
            b, a = sym.pop(), sym.pop()
            kind = op[4:]
            if kind in ("add", "sub", "mul", "shl") or (
                (a.wraps and b.wraps) if kind == "and" else (a.wraps or b.wraps)
            ):
                wraps = _WRAPPING[op]
            else:
                wraps = None
            self.push(_INLINE_BINOPS[op](a.expr, b.expr), a, b, wraps=wraps,
                      poly=_ring(op, a.poly, b.poly) if op in ("i32.add", "i32.mul", "i32.shl") else None)
        elif self.hoist and pc == self.hoist[1]:  # ``iv < n`` on plain ints
            sym[-2:] = [_Val(self.hoist[2], frozenset((self.hoist[0],)))]
        elif op[:3] == "i32" and op in _DIVISION and self.proved(sym[-2].poly, pos=_exact(sym[-1])) or \
                op == "f64.div" and self.proved(pos=sym[-1].of):  # it cannot trap
            y, x = self.pop(), self.pop()
            pyop = _DIVISION[op][0]
            self.push(f"({x.expr} {pyop} {y.expr})", x, y, poly={"%": y.poly, "//": x.poly}.get(pyop))
        elif op in _DIVISION:  # both operands are named twice
            pyop, bias = _DIVISION[op]
            y, x = self.as_atom(self.pop()).expr, self.as_atom(self.pop()).expr
            test = f"{x} < {bias} and 0 < {y} < {bias}" if bias else y
            self.push_now(f"({x} {pyop} {y} if {test} else {self.bind(BINOPS[op])}({x}, {y}))")
        elif op in BINOPS:
            b, a = self.pop(), self.pop()
            tpl = _INLINE_BINOPS.get(op)
            if tpl is not None:
                self.push(tpl(a.expr, b.expr), a, b)
            else:
                self.push(f"{self.bind(BINOPS[op])}({a.expr}, {b.expr})", a, b)
        elif op in UNOPS:
            a = self.pop()
            tpl = _INLINE_UNOPS.get(op)
            if tpl is not None:
                self.push(tpl(a.expr), a, of=_exact(a) if op == "f64.convert_i32_u" else None)
            elif op in _TRAPPING_OPS:
                self.push_now(f"{self.bind(UNOPS[op])}({a.expr})")
            else:
                self.push(f"{self.bind(UNOPS[op])}({a.expr})", a)
        elif op in INLINE_LOADS:
            unpack, fix = INLINE_LOADS[op]
            ty, size, signed = LOAD_OPS[op]
            if self.hoist and pc in self.hoisted:  # the guard bounded it
                sym.pop()
                place, typed = self.hoisted[pc]
                if typed and typed[:2] == "_r":  # the item its stream took this iteration
                    sym.append(_Val(typed, temp=self.ntemp, atom=True))
                else:
                    self.push_now(typed or f"{self.bind(unpack)}({place})[0]{fix}")
                return
            hit, address = self.page_access(op, ins, size)
            miss = (f"mem.load_float({address}, {size})" if ty.is_float else
                    f"mem.load_int({address}, {size}, {signed}){fix}")
            self.push_now(f"{self.bind(unpack)}(pages[_p].view, _o)[0]{fix} "
                          f"if {hit} else {miss}")
        elif op in INLINE_STORES:
            pack, fix = INLINE_STORES[op]
            ty, size = STORE_OPS[op]
            v = self.as_atom(self.pop())
            if self.hoist and pc in self.hoisted:  # the guard proved its page in range, writable, private
                sym.pop()
                place, typed = self.hoisted[pc]
                self.emit(f"{typed} = {v.expr}" if typed else f"{self.bind(pack)}({place}, {v.expr}{fix})")
                return
            hit, address = self.page_access(op, ins, size)
            self.emit(f"if {hit} and pages[_p].writable:")
            self.emit(f"    {self.bind(pack)}(pages[_p].view, _o, {v.expr}{fix})")
            self.emit("else:")
            self.emit(f"    mem.store_{'float' if ty.is_float else 'int'}({address}, {v.expr}, {size})")
        elif op in ATOMIC_RMW_OPS:
            _ty, size, kind = ATOMIC_RMW_OPS[op]
            v, a = self.pop(), self.pop()
            self.push_now(f"mem.atomic_rmw({self.addr(a, ins[1])}, {v.expr}, {size}, {kind!r})")
        elif op in ATOMIC_CMPXCHG_OPS:
            _ty, size = ATOMIC_CMPXCHG_OPS[op]
            r, e, a = self.pop(), self.pop(), self.pop()
            self.push_now(f"mem.atomic_cmpxchg({self.addr(a, ins[1])}, {e.expr}, {r.expr}, {size})")
        elif op == "memory.atomic.notify":
            c, a = self.pop(), self.pop()
            self.push_now(f"{self.bind(atomic_notify)}(inst, mem, {self.addr(a, ins[1])}, {c.expr})")
        elif op == "drop":
            self.pop()
        elif op == "select":
            c, b, a = self.pop(), self.pop(), self.pop()
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
            e, a = self.pop(), self.pop()
            # Listed so it unpacks like a one-result call.
            self.emit_call(f"[{self.bind(atomic_wait32)}(inst, mem, "
                           f"{self.addr(a, ins[1])}, {e.expr})]", 1)
        else:  # pragma: no cover - validation admits only known ops
            raise AssertionError(f"cannot compile opcode {op!r}")


def lower_function(fn, module):
    """Compile one flat function to its Python form, a callable
    ``f(inst, depth, *args) -> list`` of results; None (and counted) when
    the function nests deeper than CPython can compile or its code fails
    :func:`~repro.wasm.verify.verify`."""
    collecting = gc.isenabled()
    gc.disable()  # lowering, parsing and checking allocate a lot and no cycles
    try:
        lowering = _Lowering(fn, module)
        tree = ast.parse(lowering.run())
        ns = dict(lowering.ns, _code=fn.code, _UNMETERED=UNMETERED,
                  _CallStackExhausted=CallStackExhausted, _Unreachable=UnreachableExecuted)
        verify(tree, ns)
        exec(compile(tree, f"<compiled:{fn.name}>", "exec"), ns)
        return ns["f"]
    except (_TooDeep, Unverified) as refusal:
        cause = "too-deep" if isinstance(refusal, _TooDeep) else "unverified"
        GLOBAL_CODE_CACHE.metrics.counter("wasm.compile_fallbacks", cause=cause).inc()
        return None
    finally:
        if collecting:
            gc.enable()
