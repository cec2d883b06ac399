"""Differential testing: the compiled tier against the reference interpreter.

The compiled tier (``repro.wasm.compiled``) is an aggressive compiler —
structured control flow, expression folding, superblock fuel charging,
inlined operator and memory templates — and the flat tuple interpreter is
retained precisely to serve as its semantics oracle. These tests run the same programs on both tiers
and require *observational equality*: results, trap types, final linear
memory, globals, remaining fuel and ``instructions_executed`` must all
match, including on every early-exit path a fuel limit can produce.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kernels import KERNELS
from repro.minilang import build
from repro.wasm import (
    BlockType,
    F64,
    FuncType,
    HostFunc,
    I32,
    Instr,
    ModuleBuilder,
    OutOfFuel,
    Trap,
    ValidationError,
    instantiate,
    validate_module,
)

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
          "i32.ge_s", "i32.eq", "i32.ne", "i32.div_u", "i32.rem_s"]


_T_KINDS = (["push", "bin", "nest", "br_if"] * 4 + ["un", "set", "tee", "drop",
            "select", "mem", "global", "call", "grow", "br", "br_table", "return"])


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
        "fuzz", FuncType((I32,) * _PARAMS, results), [I32] * 4, body, export=True
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


@given(_typed_programs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_typed_programs_fuel_sweep(program):
    module = _build_typed_module(*program)
    n = _observe(module, "interp", None)["executed"]
    for fuel in sorted({0, 1, 2, 3, n // 3, n // 2, max(n - 1, 0), n, n + 1}):
        _assert_tiers_agree(module, fuel)


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
