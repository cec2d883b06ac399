"""Error and trap hierarchy for the Wasm-like SFI virtual machine.

Traps are the runtime enforcement half of software-fault isolation: any
attempt by guest code to step outside its sandbox (out-of-bounds memory
access, bad indirect call, exhausted fuel) raises a :class:`Trap`, which the
embedder catches at the Faaslet boundary. Validation errors are the static
half, raised before code is ever executed.
"""

from __future__ import annotations


class WasmError(Exception):
    """Base class for all errors raised by the ``repro.wasm`` package."""


class ValidationError(WasmError):
    """A module failed static validation (type checking, bad indices...)."""


class ParseError(WasmError):
    """The text-format assembler could not parse its input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LinkError(WasmError):
    """Instantiation failed: missing or mismatched imports, bad data segment."""


class Trap(WasmError):
    """Guest code performed an operation forbidden at runtime."""


class OutOfBoundsMemoryAccess(Trap):
    """A load or store fell outside the linear memory bounds."""

    def __init__(self, addr: int, size: int, mem_size: int):
        self.addr, self.size, self.mem_size = addr, size, mem_size
        super().__init__(f"out of bounds memory access: [{addr}, {addr + size}) exceeds memory size {mem_size}")


class OutOfBoundsTableAccess(Trap):
    """An indirect call used a table index outside the table bounds."""


class UndefinedElement(Trap):
    """An indirect call hit an uninitialised table slot."""


class IndirectCallTypeMismatch(Trap):
    """The function reached through ``call_indirect`` has the wrong type."""


class IntegerDivideByZero(Trap):
    """Integer division or remainder by zero."""


class IntegerOverflow(Trap):
    """Integer operation overflowed (e.g. ``INT_MIN / -1`` or bad trunc)."""


class InvalidConversion(Trap):
    """A float-to-int truncation of NaN or an out-of-range value."""


class UnreachableExecuted(Trap):
    """The ``unreachable`` instruction was executed."""


class CallStackExhausted(Trap):
    """Guest recursion exceeded the configured call-depth limit."""


class UnalignedAtomicAccess(Trap):
    """An atomic operation used an address not aligned to its access size."""

    def __init__(self, addr: int, size: int):
        self.addr, self.size = addr, size
        super().__init__(f"unaligned atomic access: address {addr} not {size}-byte aligned")


class OutOfFuel(Trap):
    """The instance ran out of fuel (CPU metering, used by cgroup accounting)."""

