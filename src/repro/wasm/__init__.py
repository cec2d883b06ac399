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

from types import ModuleType as _ModuleType

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
from .text import parse_module
from .types import (
    F32,
    F64,
    I32,
    I64,
    PAGE_SIZE,
    FuncType,
    GlobalType,
    Limits,
    MemoryType,
    TableType,
    ValType,
)
from .validation import validate_module

#: Every public name imported above, and nothing else.
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))
