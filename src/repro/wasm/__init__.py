"""``repro.wasm`` — a from-scratch WebAssembly-like SFI virtual machine.

This package is the substrate the paper's Faaslets run on: a linear-memory,
stack-typed, validated, trap-enforcing virtual ISA with a text assembler and
a flat-code interpreter plus a compiler to Python. See DESIGN.md §2 for how
it maps onto the original system's WebAssembly/WAVM stack.

Typical use::

    from repro.wasm import parse_module, instantiate

    module = parse_module('''
        (module
          (func $add (export "add") (param i32 i32) (result i32)
            (i32.add (local.get 0) (local.get 1))))
    ''')
    inst = instantiate(module)
    assert inst.invoke("add", 2, 3) == 5
"""

from .codegen import CompiledFunction, compile_function, compile_module
from .compiled import lower_function
from .errors import (
    CallStackExhausted,
    IndirectCallTypeMismatch,
    IntegerDivideByZero,
    IntegerOverflow,
    InvalidConversion,
    LinkError,
    OutOfBoundsMemoryAccess,
    OutOfBoundsTableAccess,
    OutOfFuel,
    ParseError,
    Trap,
    UnalignedAtomicAccess,
    UndefinedElement,
    UnreachableExecuted,
    ValidationError,
    WasmError,
)
from .instance import TIERS, HostFunc, Instance, instantiate
from .instructions import BlockType, Instr, instr
from .memory import LinearMemory, Page
from .module import (
    DataSegment,
    ElementSegment,
    Export,
    Function,
    Global,
    ImportedFunc,
    Module,
    ModuleBuilder,
)
from .printer import print_module
from .simd import canon_v128, f64x2, f64x2_lanes, i32x4, i32x4_lanes, v128_to_int
from .text import parse_module
from .types import (
    F32,
    F64,
    I32,
    I64,
    PAGE_SIZE,
    V128,
    FuncType,
    GlobalType,
    Limits,
    MemoryType,
    TableType,
    ValType,
)
from .validation import validate_module

__all__ = [
    "BlockType",
    "CallStackExhausted",
    "CompiledFunction",
    "DataSegment",
    "ElementSegment",
    "Export",
    "F32",
    "F64",
    "FuncType",
    "Function",
    "Global",
    "GlobalType",
    "HostFunc",
    "I32",
    "I64",
    "ImportedFunc",
    "IndirectCallTypeMismatch",
    "Instance",
    "Instr",
    "IntegerDivideByZero",
    "IntegerOverflow",
    "InvalidConversion",
    "LinearMemory",
    "Limits",
    "LinkError",
    "MemoryType",
    "Module",
    "ModuleBuilder",
    "OutOfBoundsMemoryAccess",
    "OutOfBoundsTableAccess",
    "OutOfFuel",
    "PAGE_SIZE",
    "Page",
    "ParseError",
    "TIERS",
    "TableType",
    "Trap",
    "UnalignedAtomicAccess",
    "UndefinedElement",
    "UnreachableExecuted",
    "V128",
    "ValType",
    "ValidationError",
    "WasmError",
    "canon_v128",
    "compile_function",
    "compile_module",
    "f64x2",
    "f64x2_lanes",
    "i32x4",
    "i32x4_lanes",
    "instantiate",
    "instr",
    "lower_function",
    "parse_module",
    "print_module",
    "v128_to_int",
    "validate_module",
]
