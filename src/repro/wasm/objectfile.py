"""Object files: serialised modules + pre-generated code (§3.4/§5.2).

After upload-time validation and code generation, FAASM "writes the
resulting object files to a shared object store" so any host can
instantiate the function without recompiling. This module defines that
artifact: a sectioned binary format carrying the module structure *and*
the flat-compiled function bodies.

Layout::

    magic "FOBJ" | version u16 | section*...
    section := tag u8 | length u32 | payload

Payloads are encoded with a small self-describing value encoder (ints,
floats, strings, bytes, lists, tuples, None, ValType/FuncType/BlockType),
deliberately *not* pickle: object files come from the shared store and are
parsed defensively — unknown tags raise, nothing executes on load.
"""

from __future__ import annotations

import struct

from .codegen import CompiledFunction
from .instructions import BlockType
from .module import (
    DataSegment,
    ElementSegment,
    Export,
    Function,
    Global,
    ImportedFunc,
    Module,
)
from .types import FuncType, GlobalType, Limits, MemoryType, TableType, ValType

MAGIC = b"FOBJ"
VERSION = 1


class ObjectFileError(ValueError):
    """The object file is malformed or from an unsupported version."""


# ----------------------------------------------------------------------
# Value encoder (a compact, non-executing alternative to pickle)
# ----------------------------------------------------------------------

_T_NONE = 0
_T_INT = 1
_T_NEGINT = 2
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_LIST = 6
_T_TUPLE = 7
_T_VALTYPE = 8
_T_FUNCTYPE = 9
_T_BLOCKTYPE = 10
_T_BOOL_TRUE = 11
_T_BOOL_FALSE = 12

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

_VALTYPE_CODES = {vt: code for code, vt in enumerate(ValType)}  # i32 = 0 … f64 = 3
_VALTYPE_FROM = {v: k for k, v in _VALTYPE_CODES.items()}


def _enc(value, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_BOOL_TRUE)
    elif value is False:
        out.append(_T_BOOL_FALSE)
    elif isinstance(value, int):
        if value >= 0:
            out.append(_T_INT)
        else:
            out.append(_T_NEGINT)
            value = -value
        raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")
        out.append(len(raw))
        out += raw
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _enc(item, out)
    elif isinstance(value, ValType):
        out.append(_T_VALTYPE)
        out.append(_VALTYPE_CODES[value])
    elif isinstance(value, (FuncType, BlockType)):
        out.append(_T_FUNCTYPE if isinstance(value, FuncType) else _T_BLOCKTYPE)
        _enc(list(value.params), out)
        _enc(list(value.results), out)
    else:
        raise ObjectFileError(f"cannot encode {type(value).__name__}")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ObjectFileError("truncated object file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def value(self):
        tag = self.u8()
        if tag == _T_NONE:
            return None
        if tag == _T_BOOL_TRUE:
            return True
        if tag == _T_BOOL_FALSE:
            return False
        if tag in (_T_INT, _T_NEGINT):
            value = int.from_bytes(self.take(self.u8()), "little")
            return -value if tag == _T_NEGINT else value
        if tag == _T_FLOAT:
            return _F64.unpack(self.take(8))[0]
        if tag == _T_STR:
            return self.take(self.u32()).decode("utf-8")
        if tag == _T_BYTES:
            return self.take(self.u32())
        if tag in (_T_LIST, _T_TUPLE):
            items = [self.value() for _ in range(self.u32())]
            return items if tag == _T_LIST else tuple(items)
        if tag == _T_VALTYPE and (code := self.u8()) in _VALTYPE_FROM:
            return _VALTYPE_FROM[code]
        if tag in (_T_FUNCTYPE, _T_BLOCKTYPE):
            kind = FuncType if tag == _T_FUNCTYPE else BlockType
            return kind(tuple(self.value()), tuple(self.value()))
        raise ObjectFileError(f"undecodable value (tag {tag})")


def encode_value(value) -> bytes:
    """``value`` in the encoding above: the one encoder for what the
    shared store carries (object files and snapshot manifests)."""
    out = bytearray()
    _enc(value, out)
    return bytes(out)


def decode_value(data) -> object:
    """The one value ``data`` encodes. Raises :class:`ObjectFileError` on
    an unknown tag, a short buffer or trailing bytes; nothing executes."""
    reader = _Reader(bytes(data))
    value = reader.value()
    if reader.pos != len(reader.data):
        raise ObjectFileError("trailing bytes after the encoded value")
    return value


# ----------------------------------------------------------------------
# Module / compiled-code (de)serialisation
# ----------------------------------------------------------------------


def _limits_tuple(limits: Limits):
    return (limits.minimum, limits.maximum)


def _module_payload(module: Module):
    return [
        module.name,
        [(i.module, i.name, i.type) for i in module.imports],
        _limits_tuple(module.memory.limits) if module.memory else None,
        _limits_tuple(module.table.limits) if module.table else None,
        [(g.type.valtype, g.type.mutable, g.init) for g in module.globals_],
        [(e.name, e.kind, e.index) for e in module.exports],
        [(d.offset, bytes(d.data)) for d in module.data],
        [(e.offset, list(e.func_indices)) for e in module.elements],
        module.start,
        # Function *signatures* only — bodies ship as compiled code.
        [(f.name, f.type, list(f.locals)) for f in module.funcs],
    ]


def _restore_module(payload) -> Module:
    (name, imports, memory, table, globals_, exports, data, elements,
     start, funcs) = payload
    module = Module(name=name)
    module.imports = [ImportedFunc(m, n, t) for m, n, t in imports]
    if memory is not None:
        module.memory = MemoryType(Limits(memory[0], memory[1]))
    if table is not None:
        module.table = TableType(Limits(table[0], table[1]))
    module.globals_ = [Global(GlobalType(vt, mut), init) for vt, mut, init in globals_]
    module.exports = [Export(n, k, i) for n, k, i in exports]
    module.data = [DataSegment(off, bytes(d)) for off, d in data]
    module.elements = [ElementSegment(off, list(fi)) for off, fi in elements]
    module.start = start
    # Bodies are intentionally empty: execution uses the compiled section.
    module.funcs = [Function(t, list(locs), [], n) for n, t, locs in funcs]
    return module


def _compiled_payload(compiled: list[CompiledFunction]):
    return [
        (fn.name, fn.type, list(fn.local_types), [tuple(ins) for ins in fn.code])
        for fn in compiled
    ]


def _restore_compiled(payload) -> list[CompiledFunction]:
    return [
        CompiledFunction(name, ftype, list(local_types), [tuple(ins) for ins in code])
        for name, ftype, local_types, code in payload
    ]


_SEC_MODULE = 1
_SEC_CODE = 2
_SEC_META = 3


def write_object(module: Module, compiled: list[CompiledFunction],
                 meta: dict | None = None) -> bytes:
    """Serialise a validated module and its generated code."""
    out = bytearray(MAGIC)
    out += struct.pack("<H", VERSION)

    def section(tag: int, payload) -> None:
        body = encode_value(payload)
        out.append(tag)
        out.extend(_U32.pack(len(body)))
        out.extend(body)

    section(_SEC_MODULE, _module_payload(module))
    section(_SEC_CODE, _compiled_payload(compiled))
    if meta:
        section(_SEC_META, sorted(meta.items()))
    return bytes(out)


def read_object(data: bytes) -> tuple[Module, list[CompiledFunction], dict]:
    """Parse an object file; returns (module, compiled functions, meta)."""
    if data[:4] != MAGIC:
        raise ObjectFileError("bad magic")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != VERSION:
        raise ObjectFileError(f"unsupported object version {version}")
    reader = _Reader(data)
    reader.pos = 6
    module = None
    compiled: list[CompiledFunction] = []
    meta: dict = {}
    while reader.pos < len(data):
        tag, length = reader.u8(), reader.u32()
        body = decode_value(reader.take(length))
        if tag == _SEC_MODULE:
            module = _restore_module(body)
        elif tag == _SEC_CODE:
            compiled = _restore_compiled(body)
        elif tag == _SEC_META:
            meta = dict(body)
        else:
            raise ObjectFileError(f"unknown section tag {tag}")
    if module is None:
        raise ObjectFileError("object file has no module section")
    return module, compiled, meta
