"""Unit tests for the structured lowering in ``repro.wasm.compiled``.

Each case is a small hand-written module aimed at one lowering rule —
multi-level branches, ``br_table`` over mixed targets, values carried by
branches, dead code, mid-superblock traps, CPython's nesting limits, the
inlined memory fast path — run on both tiers and compared observable by
observable against the reference interpreter.
"""

import pytest

from repro.wasm import (
    LinearMemory,
    Trap,
    compile_module,
    instantiate,
    lower_function,
    parse_module,
)
from repro.wasm.codecache import GLOBAL_CODE_CACHE
from repro.wasm.types import PAGE_SIZE


def _observe(src, entry, *args, fuel=None, tier):
    inst = instantiate(parse_module(src), fuel=fuel, tier=tier)
    try:
        outcome = ("ok", inst.invoke(entry, *args))
    except Trap as trap:
        outcome = ("trap", type(trap).__name__)
    return {
        "outcome": outcome,
        "memory": inst.memory.read(0, inst.memory.size_bytes) if inst.memory else b"",
        "globals": [g.value for g in inst.globals],
        "fuel": inst.fuel,
        "executed": inst.instructions_executed,
    }


def _agree(src, entry, *args, fuel=None):
    interp = _observe(src, entry, *args, fuel=fuel, tier="interp")
    compiled = _observe(src, entry, *args, fuel=fuel, tier="compiled")
    assert compiled == interp
    return interp


def _agree_at_every_fuel(src, entry, *args):
    """Agreement unmetered and at every fuel limit up to completion, so
    every superblock's metered arm runs at every possible cut."""
    n = _agree(src, entry, *args)["executed"]
    for fuel in range(n + 2):
        _agree(src, entry, *args, fuel=fuel)
    return n


# ----------------------------------------------------------------------
# Multi-level branches
# ----------------------------------------------------------------------

_NESTED_EXIT = """
(module
  (func (export "run") (param $mode i32) (result i32)
    (local $i i32) (local $j i32) (local $k i32) (local $acc i32)
    (block $out
      (loop $a
        (local.set $j (i32.const 0))
        (block $mid
          (loop $b
            (local.set $k (i32.const 0))
            (loop $c
              (local.set $acc (i32.add (local.get $acc) (i32.const 1)))
              ;; br 3 / br 2 / br 1 leave three, two and one Python loops.
              (br_if $out (i32.and (i32.eq (local.get $mode) (i32.const 3))
                                   (i32.eq (local.get $acc) (i32.const 7))))
              (br_if $mid (i32.and (i32.eq (local.get $mode) (i32.const 2))
                                   (i32.eq (local.get $k) (i32.const 1))))
              (br_if $a (i32.and (i32.eq (local.get $mode) (i32.const 4))
                                 (i32.eq (local.get $acc) (i32.const 5))))
              (local.set $k (i32.add (local.get $k) (i32.const 1)))
              (br_if $c (i32.lt_u (local.get $k) (i32.const 3))))
            (local.set $j (i32.add (local.get $j) (i32.const 1)))
            (br_if $b (i32.lt_u (local.get $j) (i32.const 2)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br_if $a (i32.lt_u (local.get $i) (i32.const 3)))))
    (i32.add (i32.mul (local.get $acc) (i32.const 100))
             (i32.add (i32.mul (local.get $i) (i32.const 10)) (local.get $j)))))
"""


@pytest.mark.parametrize("mode", [0, 2, 3, 4])
def test_branches_out_of_nested_loops(mode):
    obs = _agree(_NESTED_EXIT, "run", mode)
    assert obs["outcome"][0] == "ok"
    if mode == 3:
        assert obs["outcome"][1] // 100 == 7  # left all three loops at acc == 7


def test_branches_out_of_nested_loops_at_every_fuel():
    _agree_at_every_fuel(_NESTED_EXIT, "run", 3)


_BR_TABLE = """
(module
  (global $g (mut i32) (i32.const 0))
  (global $out (mut i32) (i32.const 0))
  (func (export "run") (param $sel i32)
    (local $n i32)
    (block $blk
      (loop $top
        (local.set $n (i32.add (local.get $n) (i32.const 1)))
        (global.set $g (i32.add (global.get $g) (local.get $sel)))
        (if (i32.lt_u (local.get $n) (i32.const 3))
          (then
            ;; 0: repeat the loop, 1: leave the block, 2: return, else: the if
            (br_table $top $blk 3 0 (local.get $sel))))
        (local.set $n (i32.add (local.get $n) (i32.const 100)))))
    (global.set $out (i32.add (local.get $n) (i32.const 1000)))))
"""


@pytest.mark.parametrize(
    "sel,g,out", [(0, 0, 1103), (1, 1, 1001), (2, 2, 0), (3, 3, 1101), (9, 9, 1101)]
)
def test_br_table_over_loop_block_and_function_targets(sel, g, out):
    assert _agree(_BR_TABLE, "run", sel)["globals"] == [g, out]
    _agree_at_every_fuel(_BR_TABLE, "run", sel)


def test_br_table_returning_a_value():
    src = """
    (module
      (func (export "run") (param i32) (result i32)
        (block $a (result i32)
          (block $b (result i32)
            (i32.const 7)
            (br_table $a $b 2 (local.get 0)))
          (i32.add (i32.const 10)))
        (i32.add (i32.const 100))))
    """
    assert _agree(src, "run", 0)["outcome"] == ("ok", 107)
    assert _agree(src, "run", 1)["outcome"] == ("ok", 117)
    assert _agree(src, "run", 2)["outcome"] == ("ok", 7)
    _agree_at_every_fuel(src, "run", 1)


# ----------------------------------------------------------------------
# Values carried across control edges
# ----------------------------------------------------------------------

_CARRIED = """
(module
  (func (export "run") (param $x i32) (result i32)
    (local $t i32)
    (i32.add
      ;; a pending operand below the block must survive every path out of it
      (i32.mul (local.get $x) (i32.const 3))
      (block $b (result i32)
        (local.set $t (i32.add (local.get $x) (i32.const 1)))
        (drop (br_if $b (i32.const 11) (i32.eq (local.get $x) (i32.const 1))))
        (if (result i32) (i32.eq (local.get $x) (i32.const 2))
          (then (br $b (i32.const 22)))
          (else
            (if (result i32) (i32.eq (local.get $x) (i32.const 3))
              (then (local.get $t))
              (else (i32.const 44)))))))))
"""


@pytest.mark.parametrize("x,expected", [(1, 14), (2, 28), (3, 13), (5, 59)])
def test_block_and_if_results_carried_by_branches(x, expected):
    assert _agree(_CARRIED, "run", x)["outcome"] == ("ok", expected)
    _agree_at_every_fuel(_CARRIED, "run", x)


def test_loop_parameters_carried_by_continue():
    src = """
    (module
      (func (export "run") (param $n i32) (result i32)
        (i32.const 0) (local.get $n)
        (loop $top (param i32 i32) (result i32)
          (local.set $n)                             ;; acc n   -> acc
          (i32.add (local.get $n))                   ;;         -> acc+n
          (i32.sub (local.get $n) (i32.const 1))     ;;         -> acc+n n-1
          (br_if $top (i32.gt_s (local.get $n) (i32.const 1)))
          (drop))))
    """
    assert _agree(src, "run", 4)["outcome"] == ("ok", 10)
    _agree_at_every_fuel(src, "run", 4)


@pytest.mark.parametrize("c,expected", [(0, 30), (1, 28)])
def test_values_left_by_untaken_br_if_survive_a_loop_param_carry(c, expected):
    """A ``br_if`` that is not taken leaves its carried values on the
    stack; the one below the loop's parameter reads slot ``s1``, which the
    carry into the loop overwrites."""
    src = """
    (module
      (func (export "run") (param $c i32) (result i32)
        (local $n i32)
        (block $B (result i32 i32)
          (i32.const 3)
          (if (result i32) (i32.const 1) (then (i32.const 20)) (else (i32.const 2)))
          i32.add
          (i32.const 5)
          (br_if $B (local.get $c))
          (loop $L (param i32) (result i32)
            (i32.add (i32.const 1))
            (local.set $n (i32.add (local.get $n) (i32.const 1)))
            (br_if $L (i32.lt_u (local.get $n) (i32.const 2)))))
        i32.add))
    """
    assert _agree(src, "run", c)["outcome"] == ("ok", expected)
    _agree_at_every_fuel(src, "run", c)


@pytest.mark.parametrize("c,expected", [(0, 128), (1, 28)])
def test_values_left_by_untaken_br_if_survive_a_block_result_carry(c, expected):
    """Same hazard, other carrier: a targeted block opened straight after
    the ``br_if`` receives its result in the slot the entry below reads."""
    src = """
    (module
      (func (export "run") (param $c i32) (result i32)
        (block $B (result i32 i32)
          (i32.const 3)
          (if (result i32) (i32.const 1) (then (i32.const 20)) (else (i32.const 2)))
          i32.add
          (i32.const 5)
          (br_if $B (local.get $c))
          (block $C (param i32) (result i32)
            (br $C (i32.add (i32.const 100)))))
        i32.add))
    """
    assert _agree(src, "run", c)["outcome"] == ("ok", expected)
    _agree_at_every_fuel(src, "run", c)


# ----------------------------------------------------------------------
# Dead code
# ----------------------------------------------------------------------

def test_dead_code_after_br_return_and_unreachable():
    src = """
    (module
      (memory 1)
      (func (export "run") (param i32) (result i32)
        (block $b
          (br_if $b (i32.eqz (local.get 0)))
          (block $inner
            (br $b)
            ;; never reached: stack-polymorphic junk, nested structure
            (i32.store (i32.const 0) (i32.const 1))
            (loop $l (br $l))
            (if (i32.const 1) (then (unreachable)) (else (return (i32.const 5)))))
          (i32.store (i32.const 4) (i32.const 2)))
        (if (i32.eq (local.get 0) (i32.const 2))
          (then
            (return (i32.const 9))
            (i32.store (i32.const 8) (i32.const 3))))
        (if (i32.eq (local.get 0) (i32.const 3))
          (then
            (unreachable)
            (i32.store (i32.const 12) (i32.const 4))))
        (i32.load (i32.const 0))))
    """
    for arg in (0, 1, 2):
        obs = _agree(src, "run", arg)
        assert obs["memory"][:16] == bytes(16)
    assert _agree(src, "run", 2)["outcome"] == ("ok", 9)
    assert _agree(src, "run", 3)["outcome"] == ("trap", "UnreachableExecuted")
    _agree_at_every_fuel(src, "run", 1)


# ----------------------------------------------------------------------
# Traps inside a superblock
# ----------------------------------------------------------------------

_MID_TRAP = """
(module
  (memory 1)
  (global $g (mut i32) (i32.const 1))
  (func $id (param i32) (result i32) (local.get 0))
  (func (export "run") (param $d i32) (result i32)
    (drop (call $id (i32.const 0)))   ;; a flush point before the superblock
    (i32.store (i32.const 0) (i32.const 0xAAAA))
    (global.set $g (i32.const 2))
    (i32.store (i32.const 4) (i32.div_u (i32.const 100) (local.get $d)))
    (global.set $g (i32.const 3))
    (i32.store (i32.const 8) (i32.load (i32.const 70000)))
    (i32.const 1)))
"""


@pytest.mark.parametrize("fuel", [None, 1_000, 12, 9, 8])
def test_trap_mid_superblock_matches_interpreter(fuel):
    """Effects before the trap are visible, effects after it are not, and
    the meters read what the interpreter's read: counts charged since the
    last flush point (the call) are dropped by the trap on both tiers."""
    by_zero = _agree(_MID_TRAP, "run", 0, fuel=fuel)
    out_of_bounds = _agree(_MID_TRAP, "run", 5, fuel=fuel)
    if fuel is None or fuel >= 1_000:
        assert by_zero["outcome"] == ("trap", "IntegerDivideByZero")
        assert by_zero["globals"] == [2]
        assert by_zero["memory"][:8] == (0xAAAA).to_bytes(4, "little") + bytes(4)
        assert out_of_bounds["outcome"] == ("trap", "OutOfBoundsMemoryAccess")
        assert out_of_bounds["globals"] == [3]
        assert out_of_bounds["memory"][4:8] == (20).to_bytes(4, "little")
        assert by_zero["executed"] == out_of_bounds["executed"]  # both dropped


# ----------------------------------------------------------------------
# CPython's nesting limits
# ----------------------------------------------------------------------

def _loop_nest(depth):
    body = "(local.set $acc (i32.add (local.get $acc) (i32.const 1)))"
    for level in range(depth):
        body = f"""
        (local.set $c{level} (i32.const 0))
        (loop $l{level}
          {body}
          (local.set $c{level} (i32.add (local.get $c{level}) (i32.const 1)))
          (br_if $l{level} (i32.lt_u (local.get $c{level})
                                     (i32.const {2 if level < 3 else 1}))))
        """
    counters = " ".join(f"(local $c{i} i32)" for i in range(depth))
    return f"""
    (module
      (func (export "run") (result i32)
        (local $acc i32) {counters}
        {body}
        (local.get $acc)))
    """


def test_loop_nest_beyond_cpython_limit_falls_back_counted():
    counter = GLOBAL_CODE_CACHE.metrics.counter("wasm.compile_fallbacks")
    src = _loop_nest(25)
    module = parse_module(src)
    assert lower_function(compile_module(module)[0], module) is None
    before = counter.value
    obs = _agree(src, "run", fuel=10_000)
    assert obs["outcome"] == ("ok", 8)
    assert counter.value == before + 1  # one function, counted once
    inst = instantiate(parse_module(src), tier="compiled")
    assert inst.invoke("run") == 8 and inst.invoke("run") == 8
    assert counter.value == before + 1  # cached: no second attempt


def test_loop_nest_at_cpython_limit_compiles():
    src = _loop_nest(20)
    module = parse_module(src)
    assert lower_function(compile_module(module)[0], module) is not None
    assert _agree(src, "run")["outcome"] == ("ok", 8)


def test_deep_expression_and_if_nesting_compile():
    """No NotImplementedError path: long operator chains and deep ``if``
    nests stay inside CPython's parser limits."""
    # Flat form: one 600-operator expression without nesting the parser.
    chain = "(local.get 0) " + " ".join(
        f"(i32.const {i}) (i32.add)" for i in range(600)
    )
    ifs = "(local.set 1 (i32.const 1))"
    for _ in range(60):
        ifs = f"(if (local.get 0) (then {ifs}))"
    src = f"""
    (module
      (func (export "run") (param i32) (result i32) (local i32)
        {ifs}
        {chain} (local.get 1) (i32.add)))
    """
    assert _agree(src, "run", 1)["outcome"] == ("ok", 1 + sum(range(600)) + 1)


# ----------------------------------------------------------------------
# The inlined memory fast path
# ----------------------------------------------------------------------

def test_memory_grow_then_access_new_page_in_one_activation():
    src = """
    (module
      (memory 1 4)
      (func (export "run") (result i32)
        (local $old i32)
        (local.set $old (memory.grow (i32.const 2)))
        ;; first byte of the first new page, last word of the last new page
        (i32.store (i32.const 65536) (i32.const 0x11223344))
        (i64.store (i32.const 196600) (i64.const -2))
        (i32.add
          (i32.add (local.get $old) (memory.size))
          (i32.add (i32.load (i32.const 65536))
                   (i32.wrap_i64 (i64.load (i32.const 196600)))))))
    """
    obs = _agree(src, "run")
    assert obs["outcome"] == ("ok", 1 + 3 + 0x11223344 - 2)
    _agree_at_every_fuel(src, "run")


def test_page_straddling_and_out_of_bounds_accesses():
    src = """
    (module
      (memory 2)
      (func (export "run") (param $addr i32) (result i64)
        (i64.store (local.get $addr) (i64.const 0x0102030405060708))
        (i64.load (local.get $addr))))
    """
    for addr in (65528, 65529, 65532, 65535, 65536):  # around the page edge
        assert _agree(src, "run", addr)["outcome"] == ("ok", 0x0102030405060708)
    for addr in (131065, 131072, -8, -1):
        assert _agree(src, "run", addr)["outcome"] == (
            "trap", "OutOfBoundsMemoryAccess")


_STORE = """
(module
  (memory 1)
  (func (export "poke") (param $addr i32) (param $v i32)
    (i32.store (local.get $addr) (local.get $v))
    (i32.store8 (i32.add (local.get $addr) (i32.const 8)) (local.get $v))))
"""


@pytest.mark.parametrize("tier", ["interp", "compiled"])
def test_store_to_cow_page_copies_once(tier):
    frozen = memoryview(bytes(PAGE_SIZE))
    module = parse_module(_STORE)
    memory = LinearMemory.from_frozen_pages([frozen], module.memory)
    inst = instantiate(module, memory=memory, apply_data=False, tier=tier)
    inst.invoke("poke", 16, 0x01020304)
    inst.invoke("poke", 32, 0x05060708)
    assert memory.cow_faults == 1  # first store copied, the rest hit the copy
    assert memory.pages[0].writable and memory.pages[0].view is not frozen
    assert bytes(frozen) == bytes(PAGE_SIZE)  # the snapshot is untouched
    assert memory.read(16, 4) == (0x01020304).to_bytes(4, "little")
    assert memory.read(40, 1) == b"\x08"


@pytest.mark.parametrize("tier", ["interp", "compiled"])
def test_store_to_protected_shared_page_notifies_once(tier):
    backing = bytearray(2 * PAGE_SIZE)
    dirtied = []
    module = parse_module(_STORE)
    inst = instantiate(module, tier=tier)
    base = inst.memory.map_shared_pages(
        backing, on_write=lambda start, end: dirtied.append((start, end))
    )
    inst.invoke("poke", base + PAGE_SIZE + 4, 0x0A0B0C0D)
    inst.invoke("poke", base + PAGE_SIZE + 64, 0x01010101)
    assert dirtied == [(PAGE_SIZE, 2 * PAGE_SIZE)]  # one fault, second page only
    assert inst.memory.cow_faults == 0  # shared pages are never copied
    assert backing[PAGE_SIZE + 4 : PAGE_SIZE + 8] == (0x0A0B0C0D).to_bytes(4, "little")
    assert backing[PAGE_SIZE + 72] == 0x01
