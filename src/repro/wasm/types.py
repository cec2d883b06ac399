"""Type definitions for the Wasm-like virtual ISA.

Mirrors the WebAssembly type grammar: value types, function types, limits,
memory types and global types. These are the vocabulary shared by the module
model, the validator and the interpreter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Size of one linear-memory page, as in the WebAssembly spec.
PAGE_SIZE = 64 * 1024

#: Hard cap on addressable pages for a 32-bit address space.
MAX_PAGES = 65536


class ValType(enum.Enum):
    """A WebAssembly value type."""

    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_int(self) -> bool:
        return self in (ValType.I32, ValType.I64)

    @property
    def is_float(self) -> bool:
        return self in (ValType.F32, ValType.F64)

    @property
    def bits(self) -> int:
        return 32 if self in (ValType.I32, ValType.F32) else 64

    @classmethod
    def parse(cls, text: str) -> "ValType":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown value type {text!r}") from None


I32 = ValType.I32
I64 = ValType.I64
F32 = ValType.F32
F64 = ValType.F64


@dataclass(frozen=True)
class FuncType:
    """A function signature: parameter types and result types."""

    params: tuple[ValType, ...] = ()
    results: tuple[ValType, ...] = ()

    def __str__(self) -> str:
        p = " ".join(str(t) for t in self.params)
        r = " ".join(str(t) for t in self.results)
        return f"[{p}] -> [{r}]"


@dataclass(frozen=True)
class Limits:
    """Minimum and optional maximum size, in units decided by context
    (pages for memories, elements for tables)."""

    minimum: int
    maximum: int | None = None

    def __post_init__(self) -> None:
        if self.minimum < 0:
            raise ValueError("limits minimum must be non-negative")
        if self.maximum is not None and self.maximum < self.minimum:
            raise ValueError("limits maximum must be >= minimum")

    def contains(self, size: int) -> bool:
        if size < self.minimum:
            return False
        return self.maximum is None or size <= self.maximum


@dataclass(frozen=True)
class MemoryType:
    """A linear memory type: limits in pages."""

    limits: Limits = field(default_factory=lambda: Limits(1))

    def __post_init__(self) -> None:
        if self.limits.minimum > MAX_PAGES:
            raise ValueError("memory minimum exceeds 4 GiB address space")
        if self.limits.maximum is not None and self.limits.maximum > MAX_PAGES:
            raise ValueError("memory maximum exceeds 4 GiB address space")


@dataclass(frozen=True)
class TableType:
    """A table of function references."""

    limits: Limits = field(default_factory=lambda: Limits(0))


@dataclass(frozen=True)
class GlobalType:
    """A global variable type: value type plus mutability."""

    valtype: ValType
    mutable: bool = False
