"""Differential testing: the compiled tier against the reference interpreter.

The compiled tier (``repro.wasm.compiled``) is an aggressive compiler —
structured control flow, expression folding, superblock fuel charging,
inlined operator and memory templates — and the flat tuple interpreter is
retained precisely to serve as its semantics oracle. These tests run the same programs on both tiers
and require *observational equality*: results, trap types, final linear
memory, globals, remaining fuel and ``instructions_executed`` must all
match, including on every early-exit path a fuel limit can produce.
"""

import math
import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kernels import KERNELS
from repro.minilang import build
from repro.minilang.codegen import HEAP_BASE
from repro.wasm import (
    BlockType,
    F64,
    FuncType,
    HostFunc,
    I32,
    I64,
    Instr,
    PAGE_SIZE,
    ModuleBuilder,
    OutOfFuel,
    Trap,
    ValidationError,
    compile_module,
    instantiate,
    ops,
    validate_module,
    values,
)
from repro.wasm.codecache import GLOBAL_CODE_CACHE
from repro.wasm.compiled import _Lowering, lower_function

# ----------------------------------------------------------------------
# Random-program generator (superset of the soundness-fuzz pool: adds the
# ops the compiled tier handles specially — trapping integer division,
# conversions, rotates, float templates, br_table and call_indirect).
# ----------------------------------------------------------------------

_SIMPLE_OPS = [
    "i32.add", "i32.sub", "i32.mul", "i32.div_s", "i32.div_u", "i32.rem_s",
    "i32.rem_u", "i32.and", "i32.or", "i32.xor", "i32.shl", "i32.shr_s",
    "i32.shr_u", "i32.rotl", "i32.rotr", "i32.clz", "i32.ctz", "i32.popcnt",
    "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.ge_u",
    "i32.eqz",
    "f64.add", "f64.sub", "f64.mul", "f64.div", "f64.sqrt", "f64.abs",
    "f64.neg", "f64.min", "f64.max", "f64.floor", "f64.lt", "f64.eq",
    "i32.trunc_f64_s", "i32.trunc_f64_u", "f64.convert_i32_s",
    "f64.convert_i32_u", "i64.extend_i32_u", "i64.extend_i32_s",
    "i32.wrap_i64",
    "drop", "select", "nop", "unreachable", "return",
    "memory.size", "memory.grow",
    "i32.load", "i32.store", "f64.load", "f64.store", "i32.load8_u",
    "i32.load8_s", "i32.load16_u", "i32.store8", "i32.store16",
]

_instr = st.one_of(
    st.sampled_from(_SIMPLE_OPS).map(
        lambda op: Instr(op, (0,)) if "load" in op or "store" in op else Instr(op)
    ),
    st.integers(-10, 2**33).map(lambda v: Instr("i32.const", (v,))),
    st.floats(allow_nan=False).map(lambda v: Instr("f64.const", (v,))),
    st.integers(0, 4).map(lambda i: Instr("local.get", (i,))),
    st.integers(0, 4).map(lambda i: Instr("local.set", (i,))),
    st.integers(0, 4).map(lambda i: Instr("local.tee", (i,))),
    st.integers(0, 2).map(lambda i: Instr("global.get", (i,))),
    st.integers(0, 2).map(lambda i: Instr("global.set", (i,))),
    st.integers(0, 3).map(lambda d: Instr("br", (d,))),
    st.integers(0, 3).map(lambda d: Instr("br_if", (d,))),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
        lambda ds: Instr("br_table", (tuple(ds[:-1]), ds[-1]))
    ),
    st.integers(0, 2).map(lambda f: Instr("call", (f,))),
    st.just(Instr("call_indirect", (FuncType((I32,), (I32,)),))),
)


def _blocks(children):
    return st.one_of(
        st.tuples(
            st.sampled_from(["block", "loop"]), st.lists(children, max_size=5)
        ).map(lambda t: Instr(t[0], (BlockType(), t[1]))),
        st.tuples(st.lists(children, max_size=4), st.lists(children, max_size=4)).map(
            lambda t: Instr("if", (BlockType(), t[0], t[1]))
        ),
    )


_body = st.recursive(_instr, _blocks, max_leaves=25)


def _build_module(body, results):
    builder = ModuleBuilder()
    builder.add_memory(1, 2)
    builder.add_global(I32, 0, mutable=True)
    builder.add_global(F64, 1.5, mutable=True)
    helper = builder.add_function(
        "helper", FuncType((I32,), (I32,)), [], [Instr("local.get", (0,))]
    )
    builder.add_function(
        "fuzz", FuncType((I32, I32), tuple(results)), [I32, F64], body, export=True
    )
    builder.add_table(2)
    builder.add_element(0, [helper])
    module = builder.build()
    try:
        validate_module(module)
    except ValidationError:
        return None
    return module


def _observe(module, tier, fuel):
    """Run ``fuzz`` on one tier; return every observable the guest has."""
    inst = instantiate(module, validated=True, fuel=fuel, tier=tier)
    try:
        outcome = ("ok", inst.invoke("fuzz", 7, -3))
    except Trap as trap:
        outcome = ("trap", type(trap).__name__)
    memory = inst.memory.read(0, inst.memory.size_bytes) if inst.memory else b""
    return {
        "outcome": outcome,
        "memory": memory,
        "globals": [g.value for g in inst.globals],
        "fuel": inst.fuel,
        "executed": inst.instructions_executed,
    }


def _assert_tiers_agree(module, fuel):
    interp = _observe(module, "interp", fuel)
    compiled = _observe(module, "compiled", fuel)
    assert compiled == interp
    return interp


@given(st.lists(_body, max_size=15), st.sampled_from([(), (I32,)]))
@settings(max_examples=250, deadline=None, derandomize=True)
def test_random_programs_observationally_equal(body, results):
    module = _build_module(body, results)
    if module is None:
        return  # validator rejected: nothing to compare
    metered = _assert_tiers_agree(module, fuel=50_000)
    # The generator can emit ``loop ... br 0``: only a program that ended
    # within the fuel budget is known to end without one.
    if metered["outcome"] != ("trap", "OutOfFuel"):
        _assert_tiers_agree(module, fuel=None)


@given(st.lists(_body, max_size=15), st.sampled_from([(), (I32,)]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_programs_fuel_sweep(body, results):
    """Every fuel limit — including ones that cut execution mid-block —
    must leave both tiers in byte-identical states."""
    module = _build_module(body, results)
    if module is None:
        return
    baseline = _observe(module, "interp", 50_000)
    if baseline["outcome"] == ("trap", "OutOfFuel"):
        return  # does not terminate on its own: no instruction count to sweep
    n = baseline["executed"]
    limits = sorted({0, 1, 2, 3, n // 3, n // 2, max(n - 1, 0), n, n + 1})
    for fuel in limits:
        _assert_tiers_agree(module, fuel)


# ----------------------------------------------------------------------
# Typed generator. The pool above draws instructions blindly, so most of
# its programs die in the validator and none has a block type. This one
# tracks the stack height and the label arities while it draws (all values
# are i32), so every program validates, and aims at what the structured
# lowering does with values that cross control edges: blocks, loops and
# ifs with parameters and results, ``br``/``br_if``/``br_table`` carrying
# values, entries left pending below a construct, dead code after a
# branch. Back-edges are bounded by a shared counter local.
# ----------------------------------------------------------------------

_PARAMS, _COUNTER = 2, 5  # locals 0-1 params, 2-4 scratch, 5 back-edge budget
_BACK_EDGES = 6
_T_BIN = ["i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
          "i32.shl", "i32.shr_u", "i32.shr_s", "i32.lt_s", "i32.lt_u",
          "i32.ge_s", "i32.eq", "i32.ne", "i32.div_s", "i32.div_u", "i32.rem_s",
          "i32.rem_u"]


_T_KINDS = (["push", "bin", "nest", "br_if"] * 4 + ["un", "set", "tee", "drop",
            "select", "mem", "global", "call", "grow", "br", "br_table", "return",
            "mloop", "mloop"])
_IV, _BOUND = 6, 7  # a memory loop's counter and bound locals
#: Access bases of a memory loop, by where its range lies: inside page 0,
#: across into a grown page 1, or past the end of memory.
_M_BASES = {"inside": [0, 16, 1024, 4096], "straddle": [65000, 65520],
            "past": [65000, 65520, 131000]}


class _Typed:
    def __init__(self, draw, nresults):
        self.draw = draw
        self.nresults = nresults
        self.budget = 40

    def int(self, lo, hi):
        return self.draw(st.integers(lo, hi))

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def const(self):
        return Instr("i32.const", (self.pick([0, 1, 2, 3, 7, 65532, 2**31, 2**32 - 1]),))

    def budget_test(self):
        """``counter += 1; counter <= _BACK_EDGES`` — 1 while a back-edge
        may still be taken."""
        return [
            Instr("local.get", (_COUNTER,)), Instr("i32.const", (1,)),
            Instr("i32.add"), Instr("local.tee", (_COUNTER,)),
            Instr("i32.const", (_BACK_EDGES,)), Instr("i32.le_u"),
        ]

    def address(self, shift, layout):
        """``base + (iv << shift)``, the base a constant or an unwritten
        local: affine in the counter, as the guard needs. One draw in five
        moves the base, or narrows the stride, off the access width: the
        pass must read that access through ``unpack_from`` or not run."""
        skew = self.pick([0] * 4 + [1, 2, 6]) if self.int(0, 4) == 0 else 0
        if skew == 0 and self.int(0, 4) == 0:
            shift = self.int(0, shift - 1)
        base = [Instr("i32.const", (self.pick(_M_BASES[layout]) + skew,))]
        if self.int(0, 3) == 0:
            base += [Instr("local.get", (0,)), Instr("i32.const", (8,)),
                     Instr("i32.mul"), Instr("i32.add")]
        return base + [Instr("local.get", (_IV,)), Instr("i32.const", (shift,)),
                       Instr("i32.shl"), Instr("i32.add")]

    def memory_loop(self):
        """A counted loop in the shape ``for`` compiles to, loading and
        storing i32/f64 at addresses affine in the counter. The draws span
        ranges inside a page, across pages and past memory, counters near
        2**31, and bodies the lowering must not hoist: ``memory.grow``, a
        call, or a store to the loop's own bound."""
        cmp = self.pick(["i32.lt_s", "i32.le_s", "i32.lt_u", "i32.le_u"])
        if cmp.endswith("_u") and self.int(0, 3) == 0:
            start, bound = 2**31 - 4, 2**31 + 2
        else:
            start = self.pick([0, 1, 5] + ([2**32 - 3] if cmp.endswith("_s") else []))
            bound = self.pick([0, 1, 3, 17, 40])
        step = self.pick([1, 1, 2, 3])
        layout = self.pick(["inside"] * 3 + ["straddle", "past"])
        limit = self.pick([[Instr("i32.const", (bound,))], [Instr("local.get", (_BOUND,))],
                           [Instr("local.get", (_BOUND,)), Instr("i32.const", (1,)),
                            Instr("i32.add")]])
        body = []
        for _ in range(self.int(1, 3)):
            body += self.pick([
                [Instr("local.get", (2,)), *self.address(2, layout),
                 Instr("i32.load", (self.pick([0, 0, 8] + [65528] * (layout == "past")),)),
                 Instr("i32.add"), Instr("local.set", (2,))],
                [*self.address(2, layout), Instr("local.get", (_IV,)),
                 Instr("i32.store", (self.pick([0, 0, 4]),))],
                [*self.address(3, layout), *self.address(3, layout), Instr("f64.load", (8,)),
                 Instr("f64.store", (0,))],
                [*self.address(3, layout), Instr("local.get", (_IV,)),
                 Instr("f64.convert_i32_s"), Instr("f64.store", (self.pick([0, 16]),))],
            ])
        if self.int(0, 4) == 0:
            # ``x op (iv - k)``, x 7 or INT_MIN: the divisor is 0 or -1 in the
            # middle of a pass, where the division takes its fallback arm.
            k = start + step * self.int(1, 3) + self.int(0, 1)
            body += [Instr("i32.const", (self.pick([7, 2**31]),)), Instr("local.get", (_IV,)),
                     Instr("i32.const", (k % 2**32,)), Instr("i32.sub"),
                     Instr(self.pick(["i32.rem_s", "i32.div_s", "i32.rem_u", "i32.div_u"])),
                     Instr("drop")]
        grow = [Instr("i32.const", (1,)), Instr("memory.grow"), Instr("drop")]
        if self.int(0, 4) == 0:
            body += self.pick([
                grow,
                [Instr("local.get", (_IV,)), Instr("call", (0,)), Instr("drop")],
                [Instr("local.get", (_BOUND,)), Instr("i32.const", (1,)),
                 Instr("i32.sub"), Instr("local.set", (_BOUND,))],
            ])
        head = [Instr("local.get", (_IV,)), *limit, Instr(cmp), Instr("i32.eqz"),
                Instr("br_if", (1,))]
        tail = [Instr("local.get", (_IV,)), Instr("i32.const", (step,)), Instr("i32.add"),
                Instr("local.set", (_IV,)), Instr("br", (0,))]
        # As a function's whole body: instructions before ``loop``, per
        # iteration, and how many iterations the exit test admits.
        last = (bound + (len(limit) == 3)) % 2**32
        signed = (lambda x: x - 2**32 * (x >= 2**31)) if cmp.endswith("_s") else (lambda x: x)
        runs = lambda x: signed(x) <= signed(last) if "le" in cmp else signed(x) < signed(last)
        r = next(k for k in range(60) if not runs((start + k * step) % 2**32) or k == 59)
        self.shape = (5 + 3 * (layout == "straddle"), 1 + len(head + body + tail), r)
        return [*grow * (layout == "straddle"),  # page 1 exists to straddle into
                Instr("i32.const", (bound,)), Instr("local.set", (_BOUND,)),
                Instr("i32.const", (start,)), Instr("local.set", (_IV,)),
                Instr("block", (BlockType(), [
                    Instr("loop", (BlockType(), head + body + tail))]))]

    def seq(self, h, want, labels, depth):
        """Instructions taking a stack of ``h`` i32s to ``want`` of them.
        ``labels`` holds (branch arity, is_loop), innermost last; index
        ``len(labels)`` is the function-level label."""
        out = []
        arity = lambda d: (labels[-1 - d][0] if d < len(labels) else self.nresults)
        is_loop = lambda d: d < len(labels) and labels[-1 - d][1]
        while self.budget > 0 and self.int(0, 9):
            self.budget -= 1
            kind = self.pick(_T_KINDS)
            # What an untaken br_if leaves behind meets a new label.
            forced = bool(out) and out[-1].op == "br_if" and self.int(0, 1)
            if forced:
                kind = "nest"
            if kind == "push":
                out += self.pick([
                    [self.const()],
                    [Instr("local.get", (self.int(0, 4),))],
                    # An ``if`` result arrives in a stack slot.
                    [Instr("local.get", (self.int(0, 1),)),
                     Instr("if", (BlockType((), (I32,)), [self.const()], [self.const()]))],
                ])
                h += 1
            elif kind == "bin" and h >= 2:
                out.append(Instr(self.pick(_T_BIN)))
                h -= 1
            elif kind == "un" and h >= 1:
                out.append(Instr(self.pick(["i32.eqz", "i32.clz", "i32.popcnt"])))
            elif kind == "set" and h >= 1:
                out.append(Instr("local.set", (self.int(0, 4),)))
                h -= 1
            elif kind == "tee" and h >= 1:
                out.append(Instr("local.tee", (self.int(0, 4),)))
            elif kind == "drop" and h >= 1:
                out.append(Instr("drop"))
                h -= 1
            elif kind == "select" and h >= 3:
                out.append(Instr("select"))
                h -= 2
            elif kind == "mem" and h >= 2:
                # Mask the address into the first page; its last bytes
                # still straddle into the (absent) second one.
                if self.int(0, 1):
                    out += [Instr("local.set", (4,)), Instr("i32.const", (65535,)),
                            Instr("i32.and"), Instr("local.get", (4,)),
                            Instr(self.pick(["i32.store", "i32.store8"]), (0,))]
                    h -= 2
                else:
                    out += [Instr("i32.const", (65535,)), Instr("i32.and"),
                            Instr(self.pick(["i32.load", "i32.load16_s"]), (0,))]
            elif kind == "global" and h >= 1:
                out += [Instr("global.set", (0,)), Instr("global.get", (0,))]
            elif kind == "call" and h >= 1:
                if self.int(0, 1):
                    out.append(Instr("call", (0,)))
                else:  # table: 0 the helper, 1 undefined, beyond: out of bounds
                    out += [Instr("i32.const", (self.pick([0, 0, 0, 0, 1, 5]),)),
                            Instr("call_indirect", (FuncType((I32,), (I32,)),))]
            elif kind == "grow":
                out += [Instr("i32.const", (self.int(0, 1),)), Instr("memory.grow")]
                h += 1
            elif kind == "mloop":
                out += self.memory_loop()
            elif kind == "nest" and depth < 4:
                nparams, nres = self.int(0, min(h, 2)), self.pick([0, 1, 1, 2])
                if forced and h >= 2:
                    nparams = 1
                bt = BlockType((I32,) * nparams, (I32,) * nres)
                op = self.pick(["block", "loop", "if"])
                if op == "if":
                    out.append(self.pick([self.const(), Instr("local.get", (0,)),
                                          Instr("local.get", (1,))]))
                    inner = labels + [(nres, False)]
                    arms = (self.seq(nparams, nres, inner, depth + 1),
                            self.seq(nparams, nres, inner, depth + 1))
                    # An empty else arm reads as none, which the validator
                    # refuses when there are results.
                    if nparams == nres == 0 and self.int(0, 1):
                        arms = (arms[0], [])
                    elif nres and not arms[1]:
                        arms = (arms[0], [Instr("nop")])
                    out.append(Instr("if", (bt, *arms)))
                else:
                    inner = labels + [(nparams if op == "loop" else nres, op == "loop")]
                    body = self.seq(nparams, nres, inner, depth + 1)
                    if op == "loop" and nres >= nparams and self.int(0, 2):
                        # Make it a loop: repeat while the budget lasts.
                        body += self.budget_test() + [Instr("br_if", (0,))]
                    out.append(Instr(op, (bt, body)))
                h += nres - nparams
            elif kind == "br_if":
                d = self.int(0, len(labels))
                if h >= arity(d):
                    out += (self.budget_test() if is_loop(d) else
                            [Instr("local.get", (self.int(0, 1),))])
                    out.append(Instr("br_if", (d,)))
            elif kind in ("br", "br_table", "return"):
                d = self.int(0, len(labels))
                if kind == "return":
                    d = len(labels)
                if h < arity(d):
                    continue
                targets = [d]
                if kind == "br_table":
                    same = [e for e in range(len(labels) + 1) if arity(e) == arity(d)]
                    targets = [self.pick(same) for _ in range(self.int(0, 3))] + [d]
                if any(is_loop(t) for t in targets):
                    # An unconditional back-edge: return once the budget is spent.
                    out += self.budget_test() + [Instr("i32.eqz"), Instr("if", (
                        BlockType(),
                        [Instr("i32.const", (9,))] * self.nresults + [Instr("return")],
                        [],
                    ))]
                if kind == "br_table":
                    out += [Instr("local.get", (self.int(0, 1),)),
                            Instr("br_table", (tuple(targets[:-1]), targets[-1]))]
                else:
                    out.append(Instr("return") if kind == "return" else Instr("br", (d,)))
                # What follows is dead and stack-polymorphic.
                for _ in range(self.int(0, 2)):
                    out += self.pick([
                        [Instr("nop")], [Instr("drop")],
                        [Instr("i32.add"), Instr("drop")],
                        [Instr("local.get", (0,)), Instr("local.set", (2,))],
                    ])
                return out
        out += [Instr("drop")] * max(h - want, 0)
        out += [self.const() for _ in range(max(want - h, 0))]
        return out


@st.composite
def _typed_programs(draw):
    nresults = draw(st.sampled_from([0, 1, 2, 2]))
    body = _Typed(draw, nresults).seq(0, nresults, [], 0)
    return body, (I32,) * nresults


def _build_typed_module(body, results):
    builder = ModuleBuilder()
    builder.add_memory(1, 2)
    builder.add_global(I32, 0, mutable=True)
    helper = builder.add_function(
        "helper", FuncType((I32,), (I32,)), [],
        [Instr("local.get", (0,)), Instr("i32.const", (3,)), Instr("i32.mul")],
    )
    builder.add_function(
        "fuzz", FuncType((I32,) * _PARAMS, results), [I32] * 6, body, export=True
    )
    builder.add_table(2)
    builder.add_element(0, [helper])
    module = builder.build()
    validate_module(module)  # the generator's contract: never rejected
    return module


@given(_typed_programs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_typed_programs_observationally_equal(program):
    module = _build_typed_module(*program)
    _assert_tiers_agree(module, fuel=50_000)
    _assert_tiers_agree(module, fuel=None)  # back-edges are budgeted
    # ... and the compiled tier did compile them: every function verified.
    assert GLOBAL_CODE_CACHE.metrics.counter(
        "wasm.compile_fallbacks", cause="unverified").value == 0


@given(_typed_programs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_typed_programs_fuel_sweep(program):
    module = _build_typed_module(*program)
    n = _observe(module, "interp", None)["executed"]
    for fuel in sorted({0, 1, 2, 3, n // 3, n // 2, max(n - 1, 0), n, n + 1}):
        _assert_tiers_agree(module, fuel)


@st.composite
def _loops(draw):
    typed = _Typed(draw, 0)
    return typed.memory_loop(), typed.shape


@given(_loops())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuel_limits_inside_a_pass(program):
    """A pass runs the ``q`` of its ``r`` iterations that fuel pays for:
    limits that make ``q`` 1, ``r - 1`` and ``r`` (and one instruction
    either side) leave both tiers in the same state."""
    body, (before, per, r) = program
    module = _build_typed_module(body, ())
    for q in {1, r - 1, r}:
        for fuel in range(before + q * per - 1, before + q * per + 2):
            _assert_tiers_agree(module, max(fuel, 0))


# ----------------------------------------------------------------------
# Division corner table. Integer div/rem and f64.div lower to the Python
# operator behind a test and otherwise call the BINOPS function, which
# traps (or, for f64.div, handles a zero divisor). Every pair of boundary
# operands goes through both tiers: straight-line, against a constant
# divisor, and inside a counted loop that runs as a ``for`` pass.
# ----------------------------------------------------------------------

_DIVISIONS = [f"{t}.{o}" for t in ("i32", "i64")
              for o in ("div_s", "div_u", "rem_s", "rem_u")] + ["f64.div"]
_F_CORNERS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 1e-308]


def _corners(op):
    """0, ±1, ±2, 7, INT_MIN, INT_MIN+1, INT_MAX and UINT_MAX, canonical."""
    if op == "f64.div":
        return _F_CORNERS
    m = 2 ** (32 if op[:3] == "i32" else 64)
    return sorted({x % m for x in (0, 1, -1, 2, -2, 7, -m // 2, -m // 2 + 1, m // 2 - 1, m - 1)})


def _division_module(op):
    """``line(a, b)``, ``loop(a, b, n)`` (``a op b`` n times in a counted
    loop) and ``by<k>(a)`` (``a op`` the k-th corner, a constant)."""
    t = {"i32": I32, "i64": I64, "f64": F64}[op[:3]]
    const = f"{op[:3]}.const"
    builder = ModuleBuilder()
    args = [Instr("local.get", (0,)), Instr("local.get", (1,))]
    builder.add_function("line", FuncType((t, t), (t,)), [], [*args, Instr(op)], export=True)
    iv, r = 3, 4
    builder.add_function("loop", FuncType((t, t, I32), (t,)), [I32, t], [
        Instr("block", (BlockType(), [Instr("loop", (BlockType(), [
            Instr("local.get", (iv,)), Instr("local.get", (2,)), Instr("i32.lt_s"),
            Instr("i32.eqz"), Instr("br_if", (1,)),
            *args, Instr(op), Instr("local.set", (r,)),
            Instr("local.get", (iv,)), Instr("i32.const", (1,)), Instr("i32.add"),
            Instr("local.set", (iv,)), Instr("br", (0,)),
        ]))])),
        Instr("local.get", (r,)),
    ], export=True)
    for k, b in enumerate(_corners(op)):
        builder.add_function(f"by{k}", FuncType((t,), (t,)), [],
                             [Instr("local.get", (0,)), Instr(const, (b,)), Instr(op)], export=True)
    module = builder.build()
    validate_module(module)
    return module


def _division(module, tier, entry, *args):
    inst = instantiate(module, validated=True, fuel=10_000, tier=tier)
    try:
        r = inst.invoke(entry, *args)
        outcome = ("ok", struct.pack("<d", r) if isinstance(r, float) else r)
    except Trap as trap:
        outcome = ("trap", type(trap).__name__)
    return outcome, inst.fuel, inst.instructions_executed


@pytest.mark.parametrize("op", _DIVISIONS)
def test_division_corner_table(op):
    module = _division_module(op)
    # The loop is an innermost counted loop in one superblock: a pass.
    assert "for L3 in range(" in _Lowering(compile_module(module)[1], module).run()
    corners = _corners(op)
    calls = [(e, a, b, *x) for a in corners for b in corners
             for e, x in (("line", ()), ("loop", (3,)))]
    calls += [(f"by{k}", a) for a in corners for k in range(len(corners))]
    traps = set()
    for call in calls:
        interp = _division(module, "interp", *call)
        assert _division(module, "compiled", *call) == interp, call
        traps.add(interp[0][1] if interp[0][0] == "trap" else None)
    expected = {"div_s": {"IntegerDivideByZero", "IntegerOverflow"}, "div": set()}.get(
        op[4:], {"IntegerDivideByZero"})
    assert traps - {None} == expected


def test_kernels_never_leave_the_division_fast_path(monkeypatch):
    """No Polybench kernel reaches a division helper on the compiled tier,
    at its default size or at the ``poly-exec`` workload's."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("div_s", "div_u", "rem_s", "rem_u"):
        monkeypatch.setattr(values, name, counting(name, getattr(values, name)))
    monkeypatch.setattr(ops, "_fdiv", counting("_fdiv", ops._fdiv))
    instantiate(build(KERNELS["atax"].source), tier="interp").invoke("kernel", 4)
    assert calls["rem_s"] and calls["_fdiv"]  # the wrappers are the ones called
    calls.clear()
    workload = {"jacobi-1d": 48, "atax": 48, "2mm": 14}  # its checksums are bit-exact
    for name in sorted(KERNELS):
        kernel = KERNELS[name]
        module = build(kernel.source)
        for n in {kernel.default_n, workload.get(name, kernel.default_n)}:
            result = instantiate(module, tier="compiled").invoke("kernel", n)
            assert result == pytest.approx(kernel.native(n), rel=1e-12, abs=1e-12), name
            assert workload.get(name) != n or result == kernel.native(n), name
    assert not calls


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_polybench_kernels_identical(name):
    """Polybench kernels: same checksum, same instruction count, same fuel
    accounting on both tiers (small problem sizes keep this tier-1 fast)."""
    kernel = KERNELS[name]
    module = build(kernel.source)
    n = max(4, kernel.default_n // 8)
    per_tier = {}
    for tier in ("interp", "compiled"):
        inst = instantiate(module, tier=tier, fuel=50_000_000)
        result = inst.invoke("kernel", n)
        per_tier[tier] = (result, inst.instructions_executed, inst.fuel)
    assert per_tier["compiled"] == per_tier["interp"]


#: The ``poly-exec`` workload's kernel sizes (the rest run at the size above).
_POLY_EXEC = {"jacobi-1d": 48, "atax": 48, "2mm": 14}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_polybench_kernels_identical_whole_cut_and_across_a_page(name):
    """Every kernel at its ``poly-exec`` size, and again behind a pad that
    leaves its first array one f64 before the first page boundary, so that
    array straddles two pages: run whole, then cut by fuel at half the run,
    both tiers agree on result or trap kind, instructions and fuel left.
    And the compiled tier ran it: no function fell back to the interpreter
    (a refused fold leaves every result right and the kernel on the interpreter)."""
    fallbacks = [GLOBAL_CODE_CACHE.metrics.counter("wasm.compile_fallbacks", cause=c)
                 for c in ("unverified", "too-deep")]
    before = [c.value for c in fallbacks]
    kernel = KERNELS[name]
    n = _POLY_EXEC.get(name, max(4, kernel.default_n // 8))
    pad = (PAGE_SIZE - HEAP_BASE) // 8 - 1
    module = build(kernel.source + f"export float padded(int n) {{ float[] p = new float[{pad}]; "
                                   "return kernel(n); }")
    for entry in ("kernel", "padded"):
        whole = None
        for fuel in (50_000_000, "half"):
            per_tier = {}
            for tier in ("interp", "compiled"):
                inst = instantiate(module, tier=tier, fuel=whole // 2 if whole else fuel)
                try:
                    outcome = inst.invoke(entry, n)
                except Trap as trap:
                    outcome = type(trap).__name__
                per_tier[tier] = (outcome, inst.instructions_executed, inst.fuel, inst.memory.size_pages)
            assert per_tier["compiled"] == per_tier["interp"], (entry, fuel)
            whole = per_tier["interp"][1]
            assert per_tier["interp"][0] == "OutOfFuel" if fuel == "half" else per_tier["interp"][3] == 1 + (
                entry == "padded")
    assert all(lower_function(fn, module) for fn in compile_module(module))
    assert [c.value for c in fallbacks] == before


def test_guest_interpreter_identical():
    """The Brainfuck interpreter (the paper's dynamic-runtime analogue) is
    the most control-flow-dense guest in the tree; both tiers must agree
    on outputs and CPU accounting for every sample program."""
    from repro.apps.guest_interpreter import (
        ADD_DIGITS,
        CAT,
        HELLO_WORLD,
        build_interpreter_definition,
        run_program,
    )
    from repro.faaslet import Faaslet
    from repro.host.environment import StandaloneEnvironment

    programs = [
        (HELLO_WORLD, b""),
        (CAT, b"compiled tier"),
        (ADD_DIGITS, b"47"),
    ]
    definition = build_interpreter_definition()
    per_tier = {}
    for tier in ("interp", "compiled"):
        faaslet = Faaslet(definition, StandaloneEnvironment(), tier=tier)
        outputs = [run_program(faaslet, prog, stdin) for prog, stdin in programs]
        per_tier[tier] = (outputs, faaslet.instance.instructions_executed)
    assert per_tier["compiled"] == per_tier["interp"]
    assert per_tier["compiled"][0][0] == b"Hello World!\n"


def test_host_refuel_reentry():
    """A host function may add fuel mid-call (the cgroup quantum refill
    path); the compiled tier's local meters must pick the new allowance up
    exactly like the interpreter does."""

    builder = ModuleBuilder()
    host_type = FuncType((), (I32,))
    builder.import_func("env", "refuel", host_type)
    body = [
        Instr("call", (0,)),
        Instr("drop"),
        # Burn a deterministic amount of fuel after the refill.
        Instr("i32.const", (25,)),
        Instr("local.set", (0,)),
        Instr(
            "loop",
            (
                BlockType(),
                [
                    Instr("local.get", (0,)),
                    Instr("i32.const", (1,)),
                    Instr("i32.sub"),
                    Instr("local.tee", (0,)),
                    Instr("br_if", (0,)),
                ],
            ),
        ),
        Instr("local.get", (0,)),
    ]
    builder.add_function("main", FuncType((), (I32,)), [I32], body, export=True)
    module = builder.build()
    per_tier = {}
    for tier in ("interp", "compiled"):
        refills = []

        def refuel(inst):
            refills.append(inst.fuel)
            inst.add_fuel(1_000)
            return 0

        imports = [
            HostFunc("env", "refuel", host_type, refuel, pass_instance=True)
        ]
        # fuel=2 covers only the call itself: without the mid-call refill
        # the loop below would run out, so finishing proves the refill
        # reached the running frame.
        inst = instantiate(module, imports, fuel=2, tier=tier)
        result = inst.invoke("main")
        per_tier[tier] = (result, refills, inst.fuel, inst.instructions_executed)
    assert per_tier["compiled"] == per_tier["interp"]
    result, refills, fuel, _executed = per_tier["compiled"]
    assert result == 0
    assert refills == [1]  # call itself cost 1 of the original 2


@pytest.mark.parametrize("tier", ["interp", "compiled"])
def test_out_of_fuel_is_resumable(tier):
    """After OutOfFuel, adding fuel and re-invoking must work on both
    tiers (the fair-scheduling suspend/resume pattern)."""
    module = build(
        """
        export int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        }
        """
    )
    inst = instantiate(module, tier=tier, fuel=10)
    with pytest.raises(OutOfFuel):
        inst.invoke("kernel", 1000)
    assert inst.fuel == 0
    inst.add_fuel(10_000_000)
    assert inst.invoke("kernel", 100) == 4950
