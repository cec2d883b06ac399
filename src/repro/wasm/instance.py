"""Module instantiation and the flat-code interpreter.

An :class:`Instance` is the executable form of a module: flat-compiled
functions, a linear memory, globals, a function table and resolved host
imports. The interpreter enforces, at runtime, the SFI guarantees the paper
relies on (§2.2): bounds-checked memory, checked indirect calls, bounded
call depth and — for CPU accounting by the cgroup layer — fuel metering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .codecache import GLOBAL_CODE_CACHE
from .codegen import CompiledFunction
from .compiled import UNMETERED, lower_function
from .errors import (
    CallStackExhausted,
    IndirectCallTypeMismatch,
    LinkError,
    OutOfBoundsTableAccess,
    OutOfFuel,
    Trap,
    UndefinedElement,
    UnreachableExecuted,
)
from .futex import atomic_notify, atomic_wait32
from .instructions import (
    ATOMIC_CMPXCHG_OPS,
    ATOMIC_RMW_OPS,
    LOAD_OPS,
    STORE_OPS,
    op_family,
)
from .memory import LinearMemory
from .module import Module
from .ops import BINOPS, UNOPS
from .simd import SIMD_EXTRACT_OPS, SIMD_REPLACE_OPS, canon_v128
from .types import FuncType, ValType
from .validation import validate_module
from .values import (
    MASK32,
    MASK64,
    default_value,
    to_f32,
    to_signed32,
    to_signed64,
)

#: Default guest call-depth limit (Python recursion bounds this from above).
DEFAULT_CALL_DEPTH = 220

#: Available execution tiers: "compiled" (one generated Python function
#: per guest function with superblock fuel charging, the default) and
#: "interp" (the reference tuple interpreter, retained as the semantics
#: oracle).
TIERS = ("compiled", "interp")

#: Sequentially-consistent accesses that additionally require alignment.
_ATOMIC_LOADS = frozenset({"i32.atomic.load", "i64.atomic.load"})
_ATOMIC_STORES = frozenset({"i32.atomic.store", "i64.atomic.store"})


@dataclass
class HostFunc:
    """A host function importable by guest modules.

    ``fn`` receives canonical values (unsigned ints / floats); when
    ``pass_instance`` is true it receives the calling :class:`Instance` as
    its first argument, which is how the Faaslet host interface reaches the
    caller's linear memory.
    """

    module: str
    name: str
    type: FuncType
    fn: Callable
    pass_instance: bool = False


def _canon(value, valtype: ValType):
    if valtype is ValType.I32:
        return int(value) & MASK32
    if valtype is ValType.I64:
        return int(value) & MASK64
    if valtype is ValType.F32:
        return to_f32(float(value))
    if valtype is ValType.V128:
        return canon_v128(value)
    return float(value)


def _external(value, valtype: ValType):
    """Convert a canonical value to the friendliest external representation
    (signed ints for i32/i64)."""
    if valtype is ValType.I32:
        return to_signed32(value)
    if valtype is ValType.I64:
        return to_signed64(value)
    return value


@dataclass
class GlobalInstance:
    valtype: ValType
    mutable: bool
    value: int | float | bytes


class Instance:
    """An instantiated module ready to execute."""

    def __init__(
        self,
        module: Module,
        imports: dict[tuple[str, str], HostFunc] | None = None,
        *,
        memory: LinearMemory | None = None,
        fuel: int | None = None,
        call_depth_limit: int = DEFAULT_CALL_DEPTH,
        validated: bool = False,
        apply_data: bool = True,
        run_start: bool = True,
        precompiled: list[CompiledFunction] | None = None,
        tier: str | None = None,
        profile: bool = False,
    ):
        if not validated:
            validate_module(module)
        self.module = module
        self.call_depth_limit = call_depth_limit
        self._fuel = fuel
        self._select_tier(tier, profile)
        #: Total instructions executed; the cgroup layer reads this as the
        #: Faaslet's consumed "CPU cycles".
        self.instructions_executed = 0
        #: Of those, how many the compiled tier handed to the interpreter
        #: loop because the remaining fuel did not cover a superblock.
        self.metered_instructions = 0
        #: Guest-thread support: a scheduler (``repro.faaslet.threads``)
        #: installs itself here so ``memory.atomic.wait32/notify`` can park
        #: and wake guest threads, and sets ``_refuel_hook`` to preempt the
        #: thread at quantum boundaries instead of trapping ``OutOfFuel``.
        self._thread_runtime = None
        self._refuel_hook: Callable | None = None

        imports = imports or {}
        self.funcs: list[HostFunc | CompiledFunction] = []
        for imp in module.imports:
            key = (imp.module, imp.name)
            if key not in imports:
                raise LinkError(f"missing import {imp.module}.{imp.name}")
            host = imports[key]
            if host.type != imp.type:
                raise LinkError(
                    f"import {imp.module}.{imp.name} type mismatch: "
                    f"module wants {imp.type}, host provides {host.type}"
                )
            self.funcs.append(host)
        # Without explicit precompiled code, go through the cluster-wide
        # code cache: repeated instantiations of structurally identical
        # modules (spawn churn, dlopen, re-parsed uploads) share one
        # function list, and with it the generated Python code.
        self.funcs.extend(precompiled if precompiled is not None else GLOBAL_CODE_CACHE.get_or_compile(module))

        if memory is not None:
            self.memory: LinearMemory | None = memory
        elif module.memory is not None:
            self.memory = LinearMemory(module.memory)
        else:
            self.memory = None

        self.globals: list[GlobalInstance] = [
            GlobalInstance(g.type.valtype, g.type.mutable, _canon(g.init, g.type.valtype))
            for g in module.globals_
        ]

        self.table: list[int | None] | None = None
        if module.table is not None:
            self.table = [None] * module.table.limits.minimum

        if apply_data:
            for seg in module.data:
                if self.memory is None:
                    raise LinkError("data segment without memory")
                if seg.offset + len(seg.data) > self.memory.size_bytes:
                    raise LinkError("data segment does not fit in memory")
                self.memory.write(seg.offset, seg.data)

        for seg in module.elements:
            assert self.table is not None
            end = seg.offset + len(seg.func_indices)
            if end > len(self.table):
                if module.table.limits.contains(end):
                    self.table.extend([None] * (end - len(self.table)))
                else:
                    raise LinkError("element segment does not fit in table")
            for i, fidx in enumerate(seg.func_indices):
                self.table[seg.offset + i] = fidx

        self._exports = module.export_map()
        if run_start and module.start is not None:
            self.call_index(module.start)

    @classmethod
    def from_parts(
        cls,
        module: Module,
        funcs: list,
        memory: LinearMemory | None,
        globals_: list["GlobalInstance"],
        table: list | None,
        *,
        fuel: int | None = None,
        call_depth_limit: int = DEFAULT_CALL_DEPTH,
        tier: str | None = None,
        profile: bool = False,
    ) -> "Instance":
        """Assemble an instance from pre-built parts without validation,
        code generation, data-segment copies or running the start function.

        This is the Proto-Faaslet restore fast path (§5.2): the caller
        supplies an already-compiled function list (codegen happened once at
        upload time), a copy-on-write memory and snapshotted globals/table.
        """
        inst = cls.__new__(cls)
        inst.module, inst.call_depth_limit, inst._fuel = module, call_depth_limit, fuel
        inst._select_tier(tier, profile)
        inst.instructions_executed = inst.metered_instructions = 0
        inst._thread_runtime = inst._refuel_hook = None
        inst.funcs, inst.memory, inst.globals, inst.table = funcs, memory, globals_, table
        inst._exports = module.export_map()
        return inst

    def _select_tier(self, tier: str | None, profile: bool) -> None:
        """Pick the guest-function executor once, at construction."""
        self.tier = tier if tier is not None else "compiled"
        if self.tier not in TIERS:
            raise ValueError(f"unknown execution tier {self.tier!r}")
        # Opt-in per-opcode dispatch profiling. Profiling runs on the
        # reference interpreter (counters are per flat opcode, the unit
        # a superblock fuses), whatever the tier.
        self.op_counts: Counter | None = Counter() if profile else None
        self.pair_counts: Counter | None = Counter() if profile else None
        # The plain function, called with ``self``: a bound method stored on
        # the instance would make every instance a reference cycle, freed
        # (memory pages and all) only when the cycle collector runs.
        self._execute = Instance._exec if profile or self.tier == "interp" else Instance._exec_compiled

    # ------------------------------------------------------------------
    # Fuel (CPU metering)
    # ------------------------------------------------------------------
    @property
    def fuel(self) -> int | None:
        return self._fuel

    def add_fuel(self, amount: int) -> None:
        self._fuel = amount if self._fuel is None else self._fuel + amount

    def set_fuel(self, amount: int | None) -> None:
        self._fuel = amount

    def _refuel(self, executed: int) -> int | None:
        """Fuel-exhaustion rendezvous shared by both tiers.

        Flushes the meters exactly like the trap path, then gives the
        ``_refuel_hook`` (the guest-thread scheduler) a chance to grant a
        fresh quantum; the tripping instruction has already been counted,
        so its cost is charged against the new quantum here. Returns the
        replenished local fuel, or raises :class:`OutOfFuel` when no hook
        is installed or the hook declines.
        """
        self._fuel = 0
        self.instructions_executed += executed
        hook = self._refuel_hook
        if hook is not None and hook(self):
            fuel = self._fuel
            if fuel is None:
                return None
            if fuel > 0:
                return fuel - 1
        raise OutOfFuel("instance ran out of fuel")

    # ------------------------------------------------------------------
    # Public call API
    # ------------------------------------------------------------------
    def invoke(self, name: str, *args):
        """Call an exported function. Integer results are returned signed."""
        export = self._exports.get(name)
        if export is None or export.kind != "func":
            raise KeyError(f"no exported function named {name!r}")
        return self.call_index(export.index, *args)

    def call_index(self, index: int, *args):
        ftype = self.module.func_type(index)
        if len(args) != len(ftype.params):
            raise TypeError(
                f"function expects {len(ftype.params)} args, got {len(args)}"
            )
        canon_args = [_canon(a, t) for a, t in zip(args, ftype.params)]
        results = self._call(index, canon_args, 0)
        out = [_external(r, t) for r, t in zip(results, ftype.results)]
        if not out:
            return None
        if len(out) == 1:
            return out[0]
        return tuple(out)

    def add_table_entry(self, entry) -> int:
        """Append a table entry (a local function index or an ``("ext",
        instance, index)`` reference) and return its table index. Used by
        the host interface's dynamic-linking implementation."""
        if self.table is None:
            self.table = []
        self.table.append(entry)
        return len(self.table) - 1

    def get_global(self, name: str):
        export = self._exports.get(name)
        if export is None or export.kind != "global":
            raise KeyError(f"no exported global named {name!r}")
        g = self.globals[export.index]
        return _external(g.value, g.valtype)

    def set_global(self, name: str, value) -> None:
        export = self._exports.get(name)
        if export is None or export.kind != "global":
            raise KeyError(f"no exported global named {name!r}")
        g = self.globals[export.index]
        if not g.mutable:
            raise ValueError(f"global {name!r} is immutable")
        g.value = _canon(value, g.valtype)

    # ------------------------------------------------------------------
    # Interpreter core
    # ------------------------------------------------------------------
    def _call(self, index: int, args: list, depth: int) -> list:
        fn = self.funcs[index]
        if isinstance(fn, HostFunc):
            return self._call_host(fn, args)
        return self._execute(self, fn, args, depth)

    def _call_host(self, fn: HostFunc, args: list) -> list:
        if fn.pass_instance:
            result = fn.fn(self, *args)
        else:
            result = fn.fn(*args)
        if result is None:
            results = []
        elif isinstance(result, tuple):
            results = list(result)
        else:
            results = [result]
        if len(results) != len(fn.type.results):
            raise Trap(
                f"host function {fn.module}.{fn.name} returned "
                f"{len(results)} values, expected {len(fn.type.results)}"
            )
        return [_canon(r, t) for r, t in zip(results, fn.type.results)]

    def _exec_compiled(self, fn: CompiledFunction, args: list, depth: int) -> list:
        """Tier-2 dispatch: run the function's generated Python form.

        Observationally identical to :meth:`_exec` — same results, traps,
        memory effects, ``fuel`` and ``instructions_executed`` (see
        :mod:`repro.wasm.compiled`). The code is built on first call and
        cached on the shared function object.
        """
        run = fn.compiled
        if run is None:
            run = lower_function(fn, self.module)
            if run is None:
                # Too deep for CPython, or refused by the verifier (counted
                # there): the oracle runs it.
                def run(inst, depth, *args):
                    return inst._exec(fn, list(args), depth)

            fn.compiled = run
        return run(self, depth, *args)

    def _run_metered(self, code, pc, stop, term, stack, locals_, lim, executed):
        """A compiled superblock's slow arm: interpret ``code[pc:stop]``
        (plus the charge for a terminating control instruction) one
        instruction at a time. ``lim``/``executed`` are the generated
        code's meters and come back updated, still unflushed, so a trap
        in here drops them exactly as the interpreter would."""
        self.metered_instructions += stop - pc + term
        fuel, executed = self._run(
            code, pc, stop, term, stack, locals_, 0,
            None if lim is UNMETERED else lim - executed, executed,
        )
        return (UNMETERED if fuel is None else fuel + executed), executed

    def _resolve_indirect(self, expected: FuncType, i: int):
        """Checked table lookup for ``call_indirect``: the ``(instance,
        function index)`` to call. Entries are local function indices, or
        — for dynamically linked modules (Tab. 2, dlopen/dlsym) —
        ``("ext", instance, index)`` references into another instance."""
        table = self.table
        if table is None or i >= len(table):
            raise OutOfBoundsTableAccess(f"table index {i} out of bounds")
        callee = table[i]
        if callee is None:
            raise UndefinedElement(f"uninitialised table element {i}")
        if isinstance(callee, tuple):
            _, inst, index = callee
        else:
            inst, index = self, callee
        actual = inst.module.func_type(index)
        if actual != expected:
            raise IndirectCallTypeMismatch(
                f"indirect call type mismatch: {actual} != {expected}"
            )
        return inst, index

    def dispatch_report(self, top: int | None = None) -> list[tuple[str, int]]:
        """Hottest flat opcodes recorded by ``profile=True``, descending.

        The companion ``pair_counts`` attribute holds adjacent-opcode pair
        frequencies — which sequences the compiled tier's expression
        folding has to get right to matter.
        """
        if self.op_counts is None:
            raise ValueError("instance was not created with profile=True")
        ranked = self.op_counts.most_common(top)
        return ranked

    def dispatch_family_report(self) -> list[tuple[str, int]]:
        """Dispatch counts rolled up by opcode family (simd, atomic,
        memory, var, const, control, numeric), descending."""
        if self.op_counts is None:
            raise ValueError("instance was not created with profile=True")
        families: Counter = Counter()
        for op, count in self.op_counts.items():
            families[op_family(op)] += count
        return families.most_common()

    def _exec(self, fn: CompiledFunction, args: list, depth: int) -> list:
        """Reference tier: interpret ``fn`` from its first instruction."""
        if depth >= self.call_depth_limit:
            raise CallStackExhausted(
                f"call depth exceeded {self.call_depth_limit}"
            )
        locals_ = args + [default_value(t) for t in fn.local_types]
        stack: list = []
        fuel, executed = self._run(
            fn.code, 0, -1, 0, stack, locals_, depth, self._fuel, 0
        )
        self._fuel = fuel
        self.instructions_executed += executed
        n_results = len(fn.type.results)
        return stack[len(stack) - n_results :] if n_results else []

    def _run(self, code, pc, stop, term, stack, locals_, depth, fuel, executed):
        """The interpreter loop: run from ``pc`` until the function returns
        or ``pc`` reaches ``stop``, charging one fuel per instruction.

        ``fuel``/``executed`` are the caller's unflushed meters; they are
        returned, and written to the instance only around calls and at
        exhaustion (:meth:`_refuel`), never when a trap propagates. With
        ``term`` set, the instruction at ``stop`` is charged but not
        evaluated — the compiled tier evaluates a superblock's closing
        control instruction itself.
        """
        # A range may close labels opened before it: ``end`` needs
        # something to pop (a range never branches, so never reads one).
        labels: list = [None] * (stop - pc) if stop >= 0 else []
        mem = self.memory
        globals_ = self.globals
        binops = BINOPS
        unops = UNOPS
        metered = fuel is not None
        prof = self.op_counts
        pairs = self.pair_counts
        prev_op: str | None = None

        while pc != stop:
            ins = code[pc]
            op = ins[0]
            if prof is not None:
                prof[op] += 1
                if prev_op is not None:
                    pairs[(prev_op, op)] += 1
                prev_op = op
            executed += 1
            if metered:
                fuel -= 1
                if fuel < 0:
                    fuel = self._refuel(executed)
                    executed = 0
                    metered = fuel is not None

            if op == "local.get":
                stack.append(locals_[ins[1]])
            elif op == "local.set":
                locals_[ins[1]] = stack.pop()
            elif op == "local.tee":
                locals_[ins[1]] = stack[-1]
            elif op in binops:
                rhs = stack.pop()
                stack[-1] = binops[op](stack[-1], rhs)
            elif (
                op == "i32.const"
                or op == "i64.const"
                or op == "f32.const"
                or op == "f64.const"
                or op == "v128.const"
            ):
                stack.append(ins[1])
            elif op in unops:
                stack[-1] = unops[op](stack[-1])
            elif op in LOAD_OPS:
                ty, size, signed = LOAD_OPS[op]
                addr = stack.pop() + ins[1]
                if ty is ValType.F32 or ty is ValType.F64:
                    stack.append(mem.load_float(addr, size))
                elif ty is ValType.V128:
                    stack.append(mem.read(addr, 16))
                else:
                    if op in _ATOMIC_LOADS:
                        mem._check_aligned(addr, size)
                    value = mem.load_int(addr, size, signed)
                    if signed:
                        value &= MASK32 if ty is ValType.I32 else MASK64
                    stack.append(value)
            elif op in STORE_OPS:
                ty, size = STORE_OPS[op]
                value = stack.pop()
                addr = stack.pop() + ins[1]
                if ty is ValType.F32 or ty is ValType.F64:
                    mem.store_float(addr, value, size)
                elif ty is ValType.V128:
                    mem.write(addr, value)
                else:
                    if op in _ATOMIC_STORES:
                        mem._check_aligned(addr, size)
                    mem.store_int(addr, value, size)
            elif op == "block":
                labels.append((ins[1] + 1, ins[2], len(stack) - ins[3]))
            elif op == "loop":
                labels.append((ins[1], ins[2], len(stack) - ins[2]))
            elif op == "if":
                cond = stack.pop()
                labels.append((ins[2] + 1, ins[3], len(stack) - ins[4]))
                if not cond:
                    pc = ins[1]
                    continue
            elif op == "else":
                pc = ins[1]
                continue
            elif op == "end":
                labels.pop()
            elif op == "br" or op == "br_if" or op == "br_table":
                if op == "br_if":
                    if not stack.pop():
                        pc += 1
                        continue
                    d = ins[1]
                elif op == "br":
                    d = ins[1]
                else:
                    i = stack.pop()
                    depths, default = ins[1], ins[2]
                    d = depths[i] if i < len(depths) else default
                if d >= len(labels):
                    # Branch to the implicit function-level frame: return.
                    break
                target, arity, height = labels[-1 - d]
                if arity:
                    transferred = stack[-arity:]
                    del stack[height:]
                    stack.extend(transferred)
                else:
                    del stack[height:]
                del labels[len(labels) - 1 - d :]
                pc = target
                continue
            elif op == "return":
                break
            elif op == "call":
                callee = ins[1]
                n = len(self.funcs[callee].type.params)
                call_args = stack[len(stack) - n :] if n else []
                if n:
                    del stack[len(stack) - n :]
                if metered:
                    self._fuel = fuel
                self.instructions_executed += executed
                executed = 0
                stack.extend(self._call(callee, call_args, depth + 1))
                fuel = self._fuel
                metered = fuel is not None
            elif op == "call_indirect":
                expected = ins[1]
                target, callee = self._resolve_indirect(expected, stack.pop())
                n = len(expected.params)
                call_args = stack[len(stack) - n :] if n else []
                if n:
                    del stack[len(stack) - n :]
                if metered:
                    self._fuel = fuel
                self.instructions_executed += executed
                executed = 0
                stack.extend(target._call(callee, call_args, depth + 1))
                fuel = self._fuel
                metered = fuel is not None
            elif op == "global.get":
                stack.append(globals_[ins[1]].value)
            elif op == "global.set":
                globals_[ins[1]].value = stack.pop()
            elif op == "drop":
                stack.pop()
            elif op == "select":
                cond = stack.pop()
                b = stack.pop()
                if not cond:
                    stack[-1] = b
            elif op == "memory.size":
                stack.append(mem.size_pages)
            elif op == "memory.grow":
                stack.append(mem.grow(stack.pop()) & MASK32)
            elif op in SIMD_EXTRACT_OPS:
                stack[-1] = SIMD_EXTRACT_OPS[op](stack[-1], ins[1])
            elif op in SIMD_REPLACE_OPS:
                x = stack.pop()
                stack[-1] = SIMD_REPLACE_OPS[op](stack[-1], x, ins[1])
            elif op in ATOMIC_RMW_OPS:
                _ty, size, kind = ATOMIC_RMW_OPS[op]
                operand = stack.pop()
                addr = stack.pop() + ins[1]
                stack.append(mem.atomic_rmw(addr, operand, size, kind))
            elif op in ATOMIC_CMPXCHG_OPS:
                _ty, size = ATOMIC_CMPXCHG_OPS[op]
                replacement = stack.pop()
                expected = stack.pop()
                addr = stack.pop() + ins[1]
                stack.append(
                    mem.atomic_cmpxchg(addr, expected, replacement, size)
                )
            elif op == "memory.atomic.wait32":
                expected = stack.pop()
                addr = stack.pop() + ins[1]
                # Call-style fuel handshake: the runtime may suspend this
                # guest thread inside the helper, so the meters must be
                # synced to the instance on both sides.
                if metered:
                    self._fuel = fuel
                self.instructions_executed += executed
                executed = 0
                stack.append(atomic_wait32(self, mem, addr, expected))
                fuel = self._fuel
                metered = fuel is not None
            elif op == "memory.atomic.notify":
                count = stack.pop()
                addr = stack.pop() + ins[1]
                stack.append(atomic_notify(self, mem, addr, count))
            elif op == "nop":
                pass
            elif op == "unreachable":
                raise UnreachableExecuted("unreachable executed")
            else:  # pragma: no cover - codegen emits only known ops
                raise Trap(f"unknown opcode {op!r}")
            pc += 1

        if term:
            executed += 1
            if metered:
                fuel -= 1
                if fuel < 0:
                    fuel = self._refuel(executed)
                    executed = 0
        return fuel, executed


def instantiate(
    module: Module,
    imports: dict[tuple[str, str], HostFunc] | list[HostFunc] | None = None,
    **kwargs,
) -> Instance:
    """Validate, compile and instantiate ``module`` in one step."""
    if isinstance(imports, list):
        imports = {(h.module, h.name): h for h in imports}
    return Instance(module, imports, **kwargs)
