"""The Faaslet host interface (Tab. 2).

This is the trusted virtualisation layer between guest code and the host:
every function here runs outside the sandbox's memory-safety bounds and is
therefore written defensively — guest-supplied pointers/lengths are only
ever dereferenced through the linear memory's bounds-checked accessors, and
failures surface to the guest as ``-1`` returns (POSIX style) rather than
host exceptions.

All functions are imported by guests from the ``env`` module. Pointer-typed
guest arguments are i32 offsets into the Faaslet's linear memory; byte
arrays are (ptr, len) pairs, matching the paper's byte-array-everywhere
design ("avoids the need to serialise and copy data as it passes through
the API").

The interface is **one static table** (``_TABLE``), built once when this
module is imported: every entry is a module-level function taking the
calling Faaslet first, next to its one ``FuncType``. The table holds code,
never state — everything a call touches hangs off the Faaslet it is handed.
A cold start *links* against the table (§3.4: linking is upload-time work):
:func:`build_host_imports` returns a read-only mapping that binds an entry
to its Faaslet the first time a module's import section asks for it, so a
guest that declares two imports costs two bindings, not forty-nine closures.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from types import MethodType

from repro.faaslet.netns import NetworkPolicyError
from repro.state.kv import StateKeyError
from repro.telemetry import span
from repro.wasm import FuncType, HostFunc, Trap
from repro.wasm.types import I32, I64
from repro.wasm.values import to_signed32

from .filesystem import FilesystemError

logger = logging.getLogger(__name__)

#: ``("env", name) -> (FuncType, fn(faaslet, *args))`` for all of Tab. 2.
_TABLE: dict[tuple[str, str], tuple[FuncType, object]] = {}


def _read_str(faaslet, ptr: int, length: int) -> str:
    return faaslet.instance.memory.read(ptr, length).decode("utf-8")


def _read_bytes(faaslet, ptr: int, length: int) -> bytes:
    return faaslet.instance.memory.read(ptr, length)


def _write_bytes(faaslet, ptr: int, data: bytes) -> None:
    faaslet.instance.memory.write(ptr, data)


def _guard(name: str, fn):
    """The one broad guard of the interface, for entries that call out of
    the Faaslet (chaining, dynamic linking): whatever fails there is logged,
    counted in ``errors.swallowed{site=<name>}`` and handed to the guest as
    ``-1``. A :class:`Trap` (a bad guest pointer) stays a trap."""

    def guarded(faaslet, *args):
        try:
            return fn(faaslet, *args)
        except Trap:
            raise
        except Exception:
            logger.exception("%s%r failed", name, args)
            faaslet.env.metrics.counter("errors.swallowed", site=name).inc()
            return -1

    return guarded


def _export(name: str, params, results, guarded: bool = False):
    """Decorator entering ``fn(faaslet, *args)`` in the table as ``env.<name>``."""

    def register(fn):
        functype = FuncType(tuple(params), tuple(results))
        _TABLE[("env", name)] = (functype, _guard(name, fn) if guarded else fn)
        return fn

    return register


class _LinkedImports(Mapping):
    """One Faaslet's read-only view of the table. ``imports[key]`` binds the
    entry to the Faaslet on first lookup and remembers the binding, so each
    (Faaslet, import) pair is linked at most once, at instantiation and
    never during a host call; membership and iteration bind nothing."""

    __slots__ = ("_faaslet", "_bound")

    def __init__(self, faaslet):
        self._faaslet = faaslet
        self._bound: dict[tuple[str, str], HostFunc] = {}

    def __getitem__(self, key) -> HostFunc:
        host = self._bound.get(key)
        if host is None:
            functype, fn = _TABLE[key]
            host = self._bound[key] = HostFunc(
                key[0], key[1], functype, MethodType(fn, self._faaslet)
            )
        return host

    def __contains__(self, key) -> bool:
        return key in _TABLE

    def __iter__(self):
        return iter(_TABLE)

    def __len__(self) -> int:
        return len(_TABLE)


def build_host_imports(faaslet) -> Mapping[tuple[str, str], HostFunc]:
    """The full Tab. 2 import set, linked lazily to one Faaslet.

    The ``faaslet`` is duck-typed: it must expose ``instance`` (wasm
    instance), ``env`` (a :class:`~repro.host.environment.FaasletEnvironment`),
    ``netns``, ``filesystem``, call-context fields (``input_data``,
    ``output_data``) and the region-mapping helper ``map_state_region``.
    """
    return _LinkedImports(faaslet)


# ------------------------------------------------------------------
# Standard calls: input/output and chaining
# ------------------------------------------------------------------
@_export("input_size", (), (I32,))
def _input_size(faaslet):
    return len(faaslet.input_data)

@_export("read_call_input", (I32, I32), (I32,))
def _read_call_input(faaslet, ptr, length):
    data = faaslet.input_data[:length]
    _write_bytes(faaslet, ptr, data)
    return len(data)

@_export("write_call_output", (I32, I32), ())
def _write_call_output(faaslet, ptr, length):
    faaslet.output_data += _read_bytes(faaslet, ptr, length)

@_export("chain_call", (I32, I32, I32, I32), (I32,), guarded=True)
def _chain_call(faaslet, name_ptr, name_len, in_ptr, in_len):
    name = _read_str(faaslet, name_ptr, name_len)
    payload = _read_bytes(faaslet, in_ptr, in_len)
    return faaslet.env.chain_call(name, payload)

@_export("await_call", (I32,), (I32,), guarded=True)
def _await_call(faaslet, call_id):
    return faaslet.env.await_call(to_signed32(call_id))

@_export("get_call_output_size", (I32,), (I32,), guarded=True)
def _get_call_output_size(faaslet, call_id):
    return len(faaslet.env.get_call_output(to_signed32(call_id)))

@_export("get_call_output", (I32, I32, I32), (I32,), guarded=True)
def _get_call_output(faaslet, call_id, ptr, length):
    data = faaslet.env.get_call_output(to_signed32(call_id))[:length]
    _write_bytes(faaslet, ptr, data)
    return len(data)

# ------------------------------------------------------------------
# State API
# ------------------------------------------------------------------
def _key(faaslet, ptr, length) -> str:
    return _read_str(faaslet, ptr, length)

def _access(key: str, mode: str, start: int, end: int) -> None:
    """Record a byte-range touch for the trace miner's access
    profiles. Tracing off: one ContextVar read (span() is a no-op);
    mapped-region accesses after the first map never come through
    here, so this rides the per-call host-interface rate."""
    sp = span("state.access", key=key, mode=mode)
    if sp.recording:
        with sp:
            sp.set_attr("ranges", [(start, end)])

@_export("get_state", (I32, I32, I32), (I32,))
def _get_state(faaslet, kptr, klen, size):
    """Map the state value's shared region into this Faaslet's memory
    and return the guest address of the value (§3.3 + §4.2)."""
    key = _key(faaslet, kptr, klen)
    try:
        base = faaslet.map_state_region(key, size or None)
    except StateKeyError:
        return -1
    _access(key, "read", 0, size or faaslet.env.state.tier.replica(key).value_size)
    return base

@_export("get_state_offset", (I32, I32, I32, I32), (I32,))
def _get_state_offset(faaslet, kptr, klen, offset, length):
    key = _key(faaslet, kptr, klen)
    try:
        faaslet.env.state.tier.pull_chunk(key, offset, length)
        base = faaslet.map_state_region(key, None, pull=False)
    except StateKeyError:
        return -1
    _access(key, "read", offset, offset + length)
    return base + offset

@_export("set_state", (I32, I32, I32, I32), ())
def _set_state(faaslet, kptr, klen, vptr, vlen):
    key = _key(faaslet, kptr, klen)
    # Zero-copy: guest pages stream straight into the replica's shared
    # region (no intermediate bytes object for the whole value).
    faaslet.env.state.set_state_from_memory(
        key, faaslet.instance.memory, vptr, vlen, size=vlen
    )
    _access(key, "write", 0, vlen)

@_export("set_state_offset", (I32, I32, I32, I32, I32), ())
def _set_state_offset(faaslet, kptr, klen, vptr, vlen, offset):
    key = _key(faaslet, kptr, klen)
    faaslet.env.state.set_state_from_memory(
        key, faaslet.instance.memory, vptr, vlen, offset=offset
    )
    _access(key, "write", offset, offset + vlen)

@_export("push_state", (I32, I32), ())
def _push_state(faaslet, kptr, klen):
    faaslet.env.state.push_state(_key(faaslet, kptr, klen))

@_export("push_state_offset", (I32, I32, I32, I32), ())
def _push_state_offset(faaslet, kptr, klen, offset, length):
    faaslet.env.state.push_state_offset(_key(faaslet, kptr, klen), offset, length)

@_export("pull_state", (I32, I32), ())
def _pull_state(faaslet, kptr, klen):
    faaslet.env.state.pull_state(_key(faaslet, kptr, klen))

@_export("pull_state_offset", (I32, I32, I32, I32), ())
def _pull_state_offset(faaslet, kptr, klen, offset, length):
    faaslet.env.state.pull_state_offset(_key(faaslet, kptr, klen), offset, length)

@_export("append_state", (I32, I32, I32, I32), ())
def _append_state(faaslet, kptr, klen, vptr, vlen):
    faaslet.env.state.append_state(_key(faaslet, kptr, klen), _read_bytes(faaslet, vptr, vlen))

@_export("state_size", (I32, I32), (I32,))
def _state_size(faaslet, kptr, klen):
    try:
        return faaslet.env.state.state_size(_key(faaslet, kptr, klen))
    except StateKeyError:
        return -1

def _lock_entry(method_name: str):
    """The host function forwarding to ``StateAPI.<method_name>(key)``."""

    def lock_fn(faaslet, kptr, klen):
        getattr(faaslet.env.state, method_name)(_key(faaslet, kptr, klen))

    return lock_fn

for _lock_name in (
    "lock_state_read",
    "unlock_state_read",
    "lock_state_write",
    "unlock_state_write",
    "lock_state_global_read",
    "unlock_state_global_read",
    "lock_state_global_write",
    "unlock_state_global_write",
):
    _export(_lock_name, (I32, I32), ())(_lock_entry(_lock_name))

# ------------------------------------------------------------------
# Dynamic linking
# ------------------------------------------------------------------
@_export("dlopen", (I32, I32), (I32,), guarded=True)
def _dlopen(faaslet, path_ptr, path_len):
    return faaslet.dlopen(_read_str(faaslet, path_ptr, path_len))

@_export("dlsym", (I32, I32, I32), (I32,), guarded=True)
def _dlsym(faaslet, handle, name_ptr, name_len):
    return faaslet.dlsym(to_signed32(handle), _read_str(faaslet, name_ptr, name_len))

@_export("dlclose", (I32,), (I32,))
def _dlclose(faaslet, handle):
    return faaslet.dlclose(to_signed32(handle))

# ------------------------------------------------------------------
# Memory management (grow/shrink only, per Tab. 2)
# ------------------------------------------------------------------
@_export("sbrk", (I32,), (I32,))
def _sbrk(faaslet, delta):
    return faaslet.sbrk(to_signed32(delta))

@_export("brk", (I32,), (I32,))
def _brk(faaslet, addr):
    current = faaslet.brk_value()
    if addr == 0:
        return current
    if faaslet.sbrk(addr - current) == -1:
        return -1
    return 0

@_export("mmap", (I32,), (I32,))
def _mmap(faaslet, length):
    # Anonymous, private, grow-only mapping at the end of linear memory.
    return faaslet.sbrk_pages(length)

@_export("munmap", (I32, I32), (I32,))
def _munmap(faaslet, addr, length):
    # Linear memory never shrinks (as in WebAssembly); success no-op.
    return 0

# ------------------------------------------------------------------
# Networking (client-side only, via the virtual interface)
# ------------------------------------------------------------------
@_export("socket", (I32, I32), (I32,))
def _socket(faaslet, family, sock_type):
    try:
        return faaslet.netns.socket(family, sock_type)
    except NetworkPolicyError:
        return -1

@_export("connect", (I32, I32, I32, I32), (I32,))
def _connect(faaslet, fd, host_ptr, host_len, port):
    try:
        faaslet.netns.connect(fd, _read_str(faaslet, host_ptr, host_len), port)
        return 0
    except (OSError, NetworkPolicyError):
        return -1

@_export("bind", (I32, I32, I32, I32), (I32,))
def _bind(faaslet, fd, host_ptr, host_len, port):
    try:
        faaslet.netns.bind(fd, _read_str(faaslet, host_ptr, host_len), port)
        return 0
    except (OSError, NetworkPolicyError):
        return -1

@_export("nsend", (I32, I32, I32), (I32,))
def _nsend(faaslet, fd, ptr, length):
    try:
        sent, _delay = faaslet.netns.send(fd, _read_bytes(faaslet, ptr, length))
        return sent
    except OSError:
        return -1

@_export("nrecv", (I32, I32, I32), (I32,))
def _nrecv(faaslet, fd, ptr, length):
    try:
        data, _delay = faaslet.netns.recv(fd, length)
    except OSError:
        return -1
    _write_bytes(faaslet, ptr, data)
    return len(data)

@_export("nclose", (I32,), (I32,))
def _nclose(faaslet, fd):
    faaslet.netns.close(fd)
    return 0

# ------------------------------------------------------------------
# File I/O (per-user virtual filesystem, WASI capability model)
# ------------------------------------------------------------------
@_export("open", (I32, I32, I32), (I32,))
def _open(faaslet, path_ptr, path_len, flags):
    try:
        return faaslet.filesystem.open(_read_str(faaslet, path_ptr, path_len), flags)
    except FilesystemError:
        return -1

@_export("close", (I32,), (I32,))
def _close(faaslet, fd):
    try:
        faaslet.filesystem.close(fd)
        return 0
    except FilesystemError:
        return -1

@_export("dup", (I32,), (I32,))
def _dup(faaslet, fd):
    try:
        return faaslet.filesystem.dup(fd)
    except FilesystemError:
        return -1

@_export("read", (I32, I32, I32), (I32,))
def _read(faaslet, fd, ptr, length):
    try:
        data = faaslet.filesystem.read(fd, length)
    except FilesystemError:
        return -1
    _write_bytes(faaslet, ptr, data)
    return len(data)

@_export("write", (I32, I32, I32), (I32,))
def _write(faaslet, fd, ptr, length):
    try:
        return faaslet.filesystem.write(fd, _read_bytes(faaslet, ptr, length))
    except FilesystemError:
        return -1

@_export("seek", (I32, I32, I32), (I32,))
def _seek(faaslet, fd, offset, whence):
    try:
        return faaslet.filesystem.seek(fd, to_signed32(offset), whence)
    except FilesystemError:
        return -1

@_export("fstat_size", (I32, I32), (I32,))
def _fstat_size(faaslet, path_ptr, path_len):
    try:
        return faaslet.filesystem.stat(_read_str(faaslet, path_ptr, path_len)).size
    except FilesystemError:
        return -1

# ------------------------------------------------------------------
# Guest threads (intra-Faaslet fork-join parallelism)
# ------------------------------------------------------------------
@_export("thread_spawn", (I32, I32), (I32,))
def _thread_spawn(faaslet, elem_index, argptr):
    # Spawn errors are traps (GuestThreadError), not -1 returns: a bad
    # spawn target is a program bug, not a recoverable I/O condition.
    return faaslet.thread_spawn(elem_index, argptr)

@_export("thread_join", (I32,), (I32,))
def _thread_join(faaslet, tid):
    return faaslet.thread_join(to_signed32(tid))

# ------------------------------------------------------------------
# Misc
# ------------------------------------------------------------------
@_export("gettime", (), (I64,))
def _gettime(faaslet):
    return faaslet.env.current_time_ns()

@_export("getrandom", (I32, I32), (I32,))
def _getrandom(faaslet, ptr, length):
    data = faaslet.env.random_bytes(length)
    _write_bytes(faaslet, ptr, data)
    return len(data)
