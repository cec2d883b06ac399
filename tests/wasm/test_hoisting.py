"""Hoisted loop checks: the pass against the interpreter.

An innermost counted loop runs whole iterations on page views bound once,
behind an entry guard; one whose iteration is one superblock runs them as
one ``for`` pass (``repro.wasm.compiled`` module doc). Each loop below takes
the pass. Hoisting is where SFI could break, so each way it could go wrong
has a regression test here, and each test is also run against a seeded
mutant of the lowering -- compiled without the verifier, which would
otherwise refuse it -- to show the test catches that mutant:

* a guest thread preempted inside a guarded loop while another thread
  copies a copy-on-write page the loop reads (mutant: the loop keeps taking
  guarded iterations after the metered arm ran);
* a counted loop storing into a mapped, write-protected state page: its
  guard misses, as it does on every mapped page (mutant: the guard tests
  neither ``writable`` nor ``not shared``, and a pass store has no test);
* a loop whose last iteration is out of bounds (mutant: the guard omits the
  upper end at the last iteration).

The Polybench kernels the end-to-end benchmark runs are pinned to the
interpreter through passes that fuel cuts short, with typed page views and
with the ``unpack_from`` form a big-endian host would get.
"""

import re
import struct
import sys
import threading

import pytest

from repro.apps.kernels import KERNELS
from repro.faaslet import Faaslet, FunctionDefinition
from repro.faaslet.threads import GuestThreadRuntime
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.state import GlobalStateStore, LocalTier, StateClient
from repro.wasm import (
    FuncType,
    HostFunc,
    I32,
    LinearMemory,
    OutOfFuel,
    Trap,
    compile_module,
    instantiate,
    parse_module,
    validate_module,
)
from repro.wasm import compiled
from repro.wasm.types import PAGE_SIZE


def _mutate(monkeypatch, pattern, repl):
    """Make every later lowering apply ``re.sub(pattern, repl)`` to its
    source and skip the verifier; returns the list of substitution counts."""
    counts, run = [], compiled._Lowering.run

    def mutated(self):
        source, n = re.subn(pattern, repl, run(self), flags=re.M)
        counts.append(n)
        return source

    monkeypatch.setattr(compiled._Lowering, "run", mutated)
    monkeypatch.setattr(compiled, "verify", lambda tree, ns: None)
    return counts


def _guarded(module):
    """The generated source of every function of ``module``."""
    return "".join(compiled._Lowering(fn, module).run() for fn in compile_module(module))


def _passes(module):
    """How many loops of ``module`` run as a pass."""
    return len(re.findall(r"^ +for L\d+(?:, _r\d+)* in (?:zip\()?range\(", _guarded(module), re.M))


# ----------------------------------------------------------------------
# Preemption: the metered arm is the only place another thread runs
# ----------------------------------------------------------------------

_THREADS = """
(module
  (import "env" "thread_spawn" (func $spawn (param i32 i32) (result i32)))
  (import "env" "thread_join" (func $join (param i32) (result i32)))
  (memory 2)
  (table 2 funcref)
  (elem (i32.const 0) $reader $writer)
  (func $reader (param $arg i32)
    (local $r i32) (local $i i32) (local $sum i32)
    (block $done
      (loop $round
        (br_if $done (i32.ge_u (local.get $r) (i32.const 12)))
        (local.set $i (i32.const 0))
        (block
          (loop
            (br_if 1 (i32.eqz (i32.lt_s (local.get $i) (i32.const 64))))
            (local.set $sum (i32.add (local.get $sum)
                                     (i32.load (i32.shl (local.get $i) (i32.const 2)))))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br 0)))
        (local.set $r (i32.add (local.get $r) (i32.const 1)))
        (br $round)))
    (i32.store (i32.const 65536) (local.get $sum)))
  (func $writer (param $arg i32)
    (local $i i32)
    (block
      (loop
        (br_if 1 (i32.eqz (i32.lt_s (local.get $i) (i32.const 64))))
        (i32.store (i32.shl (local.get $i) (i32.const 2)) (i32.const 1))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br 0))))
  (func (export "run") (result i32)
    (local $a i32) (local $b i32)
    (local.set $a (call $spawn (i32.const 0) (i32.const 0)))
    (local.set $b (call $spawn (i32.const 1) (i32.const 0)))
    (drop (call $join (local.get $a)))
    (drop (call $join (local.get $b)))
    (i32.load (i32.const 65536))))
"""


def _threaded(tier, source=_THREADS):
    """Reader and writer threads over a copy-on-write page 0, with quanta
    short enough that the reader is preempted inside its counted loop."""
    module = parse_module(source)
    validate_module(module)
    frozen = [memoryview(bytes(PAGE_SIZE)) for _ in range(2)]
    runtime = {}
    spawn = HostFunc("env", "thread_spawn", FuncType((I32, I32), (I32,)),
                     lambda elem, arg: runtime["rt"].spawn(elem, arg))
    join = HostFunc("env", "thread_join", FuncType((I32,), (I32,)),
                    lambda tid: runtime["rt"].join(tid))
    inst = instantiate(module, [spawn, join], validated=True, tier=tier, fuel=10**7,
                       memory=LinearMemory.from_frozen_pages(frozen, module.memory),
                       apply_data=False, precompiled=compile_module(module))
    runtime["rt"] = GuestThreadRuntime(inst, period_fuel=700)
    return inst.invoke("run"), inst.memory.cow_faults, inst.instructions_executed


@pytest.mark.parametrize("lowering", ["hoisted", "mutant"])
def test_preempted_reader_sees_the_copied_page(monkeypatch, lowering):
    assert _passes(parse_module(_THREADS)) == 2  # the reader's and the writer's loops
    interp = _threaded("interp")
    assert 0 < interp[0] < 12 * 64 and interp[1] == 2  # ones read only after the copy
    if lowering == "mutant":  # guarded iterations go on once the loop left them
        counts = _mutate(monkeypatch, r"^\s+_h\d+ = 0\n", "")
        assert _threaded("compiled") != interp and sum(counts)
    else:
        assert _threaded("compiled") == interp


# ----------------------------------------------------------------------
# A write-protected state page: a pass never stores to a mapped page
# ----------------------------------------------------------------------

_STATE = """
extern int get_state(int kptr, int klen, int size);
extern void push_state(int kptr, int klen);
export int main() {
    int[] key = new int[2];
    storeb(ptr(key), 104);
    int addr = get_state(ptr(key), 1, 65536);
    float[] vals = farr(addr);
    for (int i = 0; i < 64; i = i + 1) { vals[i] = (float) i + 0.25; }
    push_state(ptr(key), 1);
    return 0;
}
"""


def _pushed(tier):
    module = build(_STATE)
    validate_module(module)
    env = StandaloneEnvironment()
    definition = FunctionDefinition("hoist-state", module, compile_module(module))
    assert Faaslet(definition, env, tier=tier).call()[0] == 0
    return bytes(env.global_state.get_value("h")[:512])


@pytest.mark.parametrize("lowering", ["hoisted", "mutant"])
def test_store_to_protected_state_page_notifies_and_pushes(monkeypatch, lowering):
    assert _passes(build(_STATE)) >= 1 and ".cast('d')" in _guarded(build(_STATE))
    expected = b"".join(struct.pack("<d", i + 0.25) for i in range(64))
    assert _pushed("interp") == expected
    if lowering == "mutant":  # the guard tests neither writable nor private: stores go unmarked
        counts = _mutate(monkeypatch, r" and pages\[_p\d+\]\.writable and not pages\[_p\d+\]\.shared", "")
        assert _pushed("compiled") != expected and sum(counts)
    else:
        assert _pushed("compiled") == expected


# ----------------------------------------------------------------------
# The last iteration out of bounds: the guard checks it, and misses
# ----------------------------------------------------------------------

_PAST_END = """
(module
  (memory 1)
  (func (export "run") (param $n i32) (result i32)
    (local $i i32)
    (block
      (loop
        (br_if 1 (i32.eqz (i32.lt_s (local.get $i) (local.get $n))))
        (i32.store (i32.add (i32.const 65000) (i32.shl (local.get $i) (i32.const 2)))
                   (local.get $i))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br 0)))
    (local.get $i)))
"""


def _past_end(tier, n):
    module = parse_module(_PAST_END)
    inst = instantiate(module, tier=tier, fuel=10**6, precompiled=compile_module(module))
    try:
        outcome = ("ok", inst.invoke("run", n))
    except Exception as error:  # a Trap, or a mutant's failure outside the trap types
        outcome = ("raised", type(error).__name__)
    return outcome, inst.memory.read(0, PAGE_SIZE), inst.fuel, inst.instructions_executed


@pytest.mark.parametrize("lowering", ["hoisted", "mutant"])
def test_last_iteration_out_of_bounds_traps_at_the_same_instruction(monkeypatch, lowering):
    assert _passes(parse_module(_PAST_END)) == 1
    assert _past_end("compiled", 100) == _past_end("interp", 100)  # in bounds: hoisted
    interp = _past_end("interp", 200)
    assert interp[0] == ("raised", "OutOfBoundsMemoryAccess")
    assert interp[1][65000:65536] == b"".join(i.to_bytes(4, "little") for i in range(134))
    if lowering == "mutant":  # the guard checks the last iteration's lower end only
        counts = _mutate(monkeypatch, r"(_b\d+ \+ _z\d+ \* \d+) <= \d+", r"\1")
        assert _past_end("compiled", 200) != interp and sum(counts)
    else:
        assert _past_end("compiled", 200) == interp


@pytest.mark.parametrize("n", [9, 200])
def test_every_fuel_limit_matches_through_a_guarded_loop(n):
    """The whole-iteration fuel test hands each iteration that might run out
    to today's code: at every limit, guard hit (9) or miss (200), the tiers
    agree on outcome, fuel, count and memory."""
    module = parse_module(_PAST_END.replace("(local $i i32)",
                                            "(local $i i32) (local.set $i (i32.const 5))"))
    for fuel in range(0, 60):
        per_tier = []
        for tier in ("interp", "compiled"):
            inst = instantiate(module, tier=tier, fuel=fuel, precompiled=compile_module(module))
            try:
                outcome = inst.invoke("run", n)
            except Trap as trap:
                outcome = type(trap).__name__
            per_tier.append((outcome, inst.fuel, inst.instructions_executed,
                             inst.memory.read(65000, 536)))
        assert per_tier[0] == per_tier[1]


_CARRY = """
export float carry(int n) {
    float[] a = new float[n + 1];
    a[0] = 0.5;
    for (int i = 0; i < n; i = i + 1) { a[i + 1] = a[i] * 1.5 + 0.25; }
    float s = 0.0;
    for (int i = 0; i < n + 1; i = i + 1) { s = s + a[i]; }
    return s;
}
"""


def test_a_stream_reads_what_the_previous_iteration_stored():
    """``a[i + 1] = a[i] * 1.5 + 0.25``: the pass streams ``a[i]``, a slice
    of the view it stores into; each item is read when its iteration starts,
    after the last one stored it. Whole and at a hundred fuel limits across
    the run, the tiers agree on result, fuel, count and trap."""
    module = build(_CARRY)
    assert re.search(r"^ +for L\d+, _r\d+ in zip\(range\(", _guarded(module), re.M)
    whole = None
    for fuel in [None, *range(0, 2300, 23)]:
        runs = []
        for tier in ("interp", "compiled"):
            inst = instantiate(module, tier=tier, fuel=fuel, precompiled=compile_module(module))
            try:
                outcome = inst.invoke("carry", 40)
            except Trap as trap:
                outcome = type(trap).__name__
            runs.append((outcome, inst.fuel, inst.instructions_executed))
        assert runs[0] == runs[1], fuel
        whole = whole or runs[0]
    a = [0.5]
    for _ in range(40):
        a.append(a[-1] * 1.5 + 0.25)
    assert whole[0] == sum(a)


# ----------------------------------------------------------------------
# The benchmark's kernels: unmetered, and cut short inside a pass
# ----------------------------------------------------------------------

_KERNELS = [("jacobi-1d", 48), ("atax", 48), ("2mm", 14)]


def _kernel(name, n, tier, fuel):
    module = build(KERNELS[name].source)
    inst = instantiate(module, tier=tier, fuel=fuel, precompiled=compile_module(module))
    try:
        outcome = inst.invoke("kernel", n)
    except OutOfFuel:
        outcome = "OutOfFuel"
    return outcome, inst.instructions_executed, inst.fuel


@pytest.mark.parametrize("name, n", _KERNELS)
def test_kernels_match_through_passes_cut_by_fuel(name, n):
    """Unmetered, and at a third, a half and two thirds of the run: each of
    those limits runs out in a loop whose pass fuel had cut short."""
    whole = _kernel(name, n, "interp", None)
    assert _kernel(name, n, "compiled", None) == whole and _passes(build(KERNELS[name].source)) >= 3
    for fuel in (whole[1] // 3, whole[1] // 2, 2 * whole[1] // 3):
        cut = _kernel(name, n, "interp", fuel)
        assert cut[0] == "OutOfFuel" and _kernel(name, n, "compiled", fuel) == cut


def test_struct_form_on_a_big_endian_host(monkeypatch):
    """Without native little-endian items the pass keeps ``unpack_from``
    and ``pack_into``, with the same results."""
    typed = {name: _kernel(name, n, "compiled", None) for name, n in _KERNELS}
    monkeypatch.setattr(compiled, "_TYPED", {})
    for name, n in _KERNELS:
        source = _guarded(build(KERNELS[name].source))
        assert ".cast(" not in source and re.search(r"_k\d+\(_v\d+, _b\d+", source)
        assert _kernel(name, n, "compiled", None) == typed[name]


# ----------------------------------------------------------------------
# Counted nests: one guard per nest entry, each inner loop a pass
# ----------------------------------------------------------------------

_NEST = """
(module
  (memory 1)
  (func (export "run") (param $n i32) (param $m i32) (result i32)
    (local $i i32) (local $j i32) (local $s i32)
    (block
      (loop
        (br_if 1 (i32.eqz (i32.lt_s (local.get $i) (local.get $n))))
        (local.set $j (i32.const 0))
        (block
          (loop
            (br_if 1 (i32.eqz (i32.lt_s (local.get $j) (local.get $m))))
            (i32.store (i32.add (i32.const 64000)
                                (i32.add (i32.shl (local.get $i) (i32.const 6))
                                         (i32.shl (local.get $j) (i32.const 2))))
                       (i32.add (local.get $i) (i32.add (local.get $j) (i32.const 1))))
            (local.set $s (i32.add (local.get $s)
                                   (i32.load (i32.add (i32.const 64000)
                                                      (i32.shl (local.get $j) (i32.const 2))))))
            (local.set $j (i32.add (local.get $j) (i32.const 1)))
            (br 0)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br 0)))
    (local.get $s)))
"""


def _nest(tier, n, m, fuel=10**6, memory=None):
    """Run ``_NEST``: rows of ``m`` words from 64000 on, one row per ``i``,
    summing row 0 as it goes; the outcome, memory, fuel and count."""
    module = parse_module(_NEST)
    inst = instantiate(module, tier=tier, fuel=fuel, precompiled=compile_module(module),
                       **({"memory": memory, "apply_data": False} if memory else {}))
    try:
        outcome = ("ok", inst.invoke("run", n, m))
    except Trap as trap:
        outcome = ("trap", type(trap).__name__)
    return outcome, inst.memory.read(63000, PAGE_SIZE - 63000), inst.fuel, inst.instructions_executed


def test_nest_takes_one_guard_and_an_inner_pass():
    source = _guarded(parse_module(_NEST))
    assert len(re.findall(r"^ +_h\d+ = (?!0$)", source, re.M)) == 2  # the nest's and the inner loop's
    assert re.search(r"^ +for L3 in range\(0, _z\d+ \+ 1, 1\):", source, re.M)
    assert _nest("compiled", 8, 16) == _nest("interp", 8, 16)


def test_every_fuel_limit_matches_through_a_nest():
    """Fuel that runs out at every instruction of a small nest: outcome,
    memory, remaining fuel and count match the interpreter's at each, so
    each of the nest's superblocks is one where fuel ends."""
    whole = _nest("interp", 3, 4)
    assert whole[0][0] == "ok"
    for fuel in range(whole[3] + 2):
        assert _nest("compiled", 3, 4, fuel) == _nest("interp", 3, 4, fuel), fuel


def test_nest_out_of_bounds_at_its_last_corner_traps_at_the_same_instruction():
    """Row 23 ends past the page: the guard fails at the (last, last) corner
    and today's code traps where the interpreter does."""
    interp = _nest("interp", 30, 16)
    assert interp[0] == ("trap", "OutOfBoundsMemoryAccess")
    assert _nest("compiled", 30, 16) == interp


def test_first_store_into_a_copy_on_write_page_inside_a_nest():
    """The nest's page is copy-on-write: its guard fails, today's code copies
    the page at its first store, and the inner loops' own guards run passes
    on the copy from the next row on."""
    runs = {}
    for tier in ("interp", "compiled"):
        memory = LinearMemory.from_frozen_pages([memoryview(bytes(PAGE_SIZE))], parse_module(_NEST).memory)
        runs[tier] = _nest(tier, 8, 16, memory=memory), memory.cow_faults
    assert runs["compiled"] == runs["interp"] and runs["interp"][1] == 1


def test_preempted_reader_resumes_compiled_code_mid_nest():
    """The reader's rounds made a counted nest: preempted in today's code
    after its pass ran out of fuel, it resumes compiled code and sees the
    writer's copy of page 0 exactly as the interpreter does."""
    nested = _THREADS.replace("(br_if $done (i32.ge_u (local.get $r) (i32.const 12)))",
                              "(br_if $done (i32.eqz (i32.lt_s (local.get $r) (i32.const 12))))")
    assert "range(0, _z" in _guarded(parse_module(nested))
    interp = _threaded("interp", nested)
    assert 0 < interp[0] < 12 * 64 and interp[1] == 2
    assert _threaded("compiled", nested) == interp


def _pushed_nest(rounds):
    """The (i, j) nest stores a 4 KiB block of a mapped state page per round,
    on a guest thread, while this thread pushes the key in a loop; True when
    the last push leaves the global value equal to the block."""
    store = GlobalStateStore()
    store.set_value("k", bytes(PAGE_SIZE))
    tier = LocalTier("host", StateClient(store))
    replica = tier.pull("k")
    module = parse_module(_ROUNDS)
    inst = instantiate(module, tier="compiled", precompiled=compile_module(module))
    base, errors = replica.region.map_into(inst.memory), []

    def run():
        try:
            inst.invoke("run", base, rounds)
        except Trap as trap:  # reported below, where it fails the race
            errors.append(trap)

    guest = threading.Thread(target=run)
    guest.start()
    while guest.is_alive():
        tier.push("k")
    guest.join(timeout=30.0)
    assert not guest.is_alive() and errors == []
    tier.push("k")
    block = b"".join(((rounds - 1) * 4096 + k + 1).to_bytes(8, "little") for k in range(512))
    return bytes(store.get_value("k")[:4096]) == block == inst.memory.read(base, 4096)


_ROUNDS = """
(module
  (memory 1 4)
  (func (export "run") (param $base i32) (param $rounds i32)
    (local $r i32) (local $i i32) (local $j i32)
    (block $done
      (loop $round
        (br_if $done (i32.ge_u (local.get $r) (local.get $rounds)))
        (i64.store (local.get $base) (i64.const 0))
        (local.set $i (i32.const 0))
        (block
          (loop
            (br_if 1 (i32.eqz (i32.lt_s (local.get $i) (i32.const 8))))
            (local.set $j (i32.const 0))
            (block
              (loop
                (br_if 1 (i32.eqz (i32.lt_s (local.get $j) (i32.const 64))))
                (i64.store (i32.add (local.get $base)
                                    (i32.add (i32.shl (local.get $i) (i32.const 9))
                                             (i32.shl (local.get $j) (i32.const 3))))
                           (i64.extend_i32_u
                             (i32.add (i32.shl (local.get $r) (i32.const 12))
                                      (i32.add (i32.shl (local.get $i) (i32.const 6))
                                               (i32.add (local.get $j) (i32.const 1))))))
                (local.set $j (i32.add (local.get $j) (i32.const 1)))
                (br 0)))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br 0)))
        (local.set $r (i32.add (local.get $r) (i32.const 1)))
        (br $round)))))
"""


def test_nest_storing_into_a_mapped_page_racing_pushes_ships_every_byte():
    """Pushes re-protect the page while the nest's pass stores into it: each
    store that misses takes the slow path (dirty mark) and binds the views
    again, and the last push ships the whole block, at a 1 µs switch
    interval over 20 races."""
    assert "in range(0, _z" in _guarded(parse_module(_ROUNDS))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lost = [r for r in range(20) if not _pushed_nest(40)]
    finally:
        sys.setswitchinterval(interval)
    assert lost == []


_TRIANGLE = """
export int tri(int n) {
    int[] a = new int[n * n];
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
        for (int j = i; j < n; j = j + 1) { a[i * n + j] = i + j; }
    }
    for (int i = 0; i < n * n; i = i + 1) { s = s + a[i] * (i + 1); }
    return s;
}
"""


@pytest.mark.parametrize("name", ["triangle", "lu", "cholesky"])
def test_triangular_nests_are_not_taken_and_still_match(name):
    """An inner loop that starts at the outer counter is no rectangle: the
    outer loop is no nest, its inner loop keeps its own guard, and both tiers
    agree."""
    source, entry, n = (_TRIANGLE, "tri", 9) if name == "triangle" else (KERNELS[name].source, "kernel", 8)
    module = build(source)
    if name == "triangle":
        fn = next(f for f in compile_module(module) if f.name == "tri")
        assert all(len(plan[0]) == 1 for plan in compiled._Lowering(fn, module).loops.values())
    runs = [(inst.invoke(entry, n), inst.instructions_executed, inst.fuel) for inst in (
        instantiate(module, tier=tier, fuel=10**8) for tier in ("interp", "compiled"))]
    assert runs[0] == runs[1]
