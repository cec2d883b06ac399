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
"""

from __future__ import annotations

import logging
import struct

from repro.faaslet.netns import NetworkPolicyError
from repro.state.kv import StateKeyError
from repro.telemetry import span
from repro.wasm import FuncType, HostFunc
from repro.wasm.types import I32, I64
from repro.wasm.values import to_signed32

from .filesystem import FilesystemError

logger = logging.getLogger(__name__)

_I32 = I32
_U32 = struct.Struct("<I")


def _read_str(faaslet, ptr: int, length: int) -> str:
    return faaslet.instance.memory.read(ptr, length).decode("utf-8")


def _read_bytes(faaslet, ptr: int, length: int) -> bytes:
    return faaslet.instance.memory.read(ptr, length)


def _write_bytes(faaslet, ptr: int, data: bytes) -> None:
    faaslet.instance.memory.write(ptr, data)


def build_host_imports(faaslet) -> dict[tuple[str, str], HostFunc]:
    """Build the full Tab. 2 import set bound to one Faaslet.

    The ``faaslet`` is duck-typed: it must expose ``instance`` (wasm
    instance), ``env`` (a :class:`~repro.host.environment.FaasletEnvironment`),
    ``netns``, ``filesystem``, call-context fields (``input_data``,
    ``output_data``) and the region-mapping helper ``map_state_region``.
    """
    env = faaslet.env
    imports: dict[tuple[str, str], HostFunc] = {}

    def export(name: str, params, results):
        """Decorator registering a host function under ``env.<name>``."""

        def wrap(fn):
            imports[("env", name)] = HostFunc(
                "env", name, FuncType(tuple(params), tuple(results)), fn
            )
            return fn

        return wrap

    # ------------------------------------------------------------------
    # Standard calls: input/output and chaining
    # ------------------------------------------------------------------
    @export("input_size", (), (I32,))
    def input_size():
        return len(faaslet.input_data)

    @export("read_call_input", (I32, I32), (I32,))
    def read_call_input(ptr, length):
        data = faaslet.input_data[:length]
        _write_bytes(faaslet, ptr, data)
        return len(data)

    @export("write_call_output", (I32, I32), ())
    def write_call_output(ptr, length):
        faaslet.output_data += _read_bytes(faaslet, ptr, length)

    @export("chain_call", (I32, I32, I32, I32), (I32,))
    def chain_call(name_ptr, name_len, in_ptr, in_len):
        name = _read_str(faaslet, name_ptr, name_len)
        payload = _read_bytes(faaslet, in_ptr, in_len)
        try:
            return env.chain_call(name, payload)
        except Exception:
            logger.exception("chain_call(%s) failed", name)
            return -1

    @export("await_call", (I32,), (I32,))
    def await_call(call_id):
        try:
            return env.await_call(to_signed32(call_id))
        except Exception:
            logger.exception("await_call(%s) failed", call_id)
            return -1

    @export("get_call_output_size", (I32,), (I32,))
    def get_call_output_size(call_id):
        try:
            return len(env.get_call_output(to_signed32(call_id)))
        except Exception:
            return -1

    @export("get_call_output", (I32, I32, I32), (I32,))
    def get_call_output(call_id, ptr, length):
        try:
            data = env.get_call_output(to_signed32(call_id))[:length]
        except Exception:
            return -1
        _write_bytes(faaslet, ptr, data)
        return len(data)

    # ------------------------------------------------------------------
    # State API
    # ------------------------------------------------------------------
    def _key(ptr, length) -> str:
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

    @export("get_state", (I32, I32, I32), (I32,))
    def get_state(kptr, klen, size):
        """Map the state value's shared region into this Faaslet's memory
        and return the guest address of the value (§3.3 + §4.2)."""
        key = _key(kptr, klen)
        try:
            base = faaslet.map_state_region(key, size or None)
        except StateKeyError:
            return -1
        _access(key, "read", 0, size or env.state.tier.replica(key).value_size)
        return base

    @export("get_state_offset", (I32, I32, I32, I32), (I32,))
    def get_state_offset(kptr, klen, offset, length):
        key = _key(kptr, klen)
        try:
            env.state.tier.pull_chunk(key, offset, length)
            base = faaslet.map_state_region(key, None, pull=False)
        except StateKeyError:
            return -1
        _access(key, "read", offset, offset + length)
        return base + offset

    @export("set_state", (I32, I32, I32, I32), ())
    def set_state(kptr, klen, vptr, vlen):
        key = _key(kptr, klen)
        # Zero-copy: guest pages stream straight into the replica's shared
        # region (no intermediate bytes object for the whole value).
        env.state.set_state_from_memory(
            key, faaslet.instance.memory, vptr, vlen, size=vlen
        )
        _access(key, "write", 0, vlen)

    @export("set_state_offset", (I32, I32, I32, I32, I32), ())
    def set_state_offset(kptr, klen, vptr, vlen, offset):
        key = _key(kptr, klen)
        env.state.set_state_from_memory(
            key, faaslet.instance.memory, vptr, vlen, offset=offset
        )
        _access(key, "write", offset, offset + vlen)

    @export("push_state", (I32, I32), ())
    def push_state(kptr, klen):
        env.state.push_state(_key(kptr, klen))

    @export("push_state_offset", (I32, I32, I32, I32), ())
    def push_state_offset(kptr, klen, offset, length):
        env.state.push_state_offset(_key(kptr, klen), offset, length)

    @export("pull_state", (I32, I32), ())
    def pull_state(kptr, klen):
        env.state.pull_state(_key(kptr, klen))

    @export("pull_state_offset", (I32, I32, I32, I32), ())
    def pull_state_offset(kptr, klen, offset, length):
        env.state.pull_state_offset(_key(kptr, klen), offset, length)

    @export("append_state", (I32, I32, I32, I32), ())
    def append_state(kptr, klen, vptr, vlen):
        env.state.append_state(_key(kptr, klen), _read_bytes(faaslet, vptr, vlen))

    @export("state_size", (I32, I32), (I32,))
    def state_size(kptr, klen):
        try:
            return env.state.state_size(_key(kptr, klen))
        except StateKeyError:
            return -1

    for lock_name in (
        "lock_state_read",
        "unlock_state_read",
        "lock_state_write",
        "unlock_state_write",
        "lock_state_global_read",
        "unlock_state_global_read",
        "lock_state_global_write",
        "unlock_state_global_write",
    ):
        def _make_lock(method_name):
            method = getattr(env.state, method_name)

            def lock_fn(kptr, klen):
                method(_key(kptr, klen))

            return lock_fn

        imports[("env", lock_name)] = HostFunc(
            "env", lock_name, FuncType((I32, I32), ()), _make_lock(lock_name)
        )

    # ------------------------------------------------------------------
    # Dynamic linking
    # ------------------------------------------------------------------
    @export("dlopen", (I32, I32), (I32,))
    def dlopen(path_ptr, path_len):
        path = _read_str(faaslet, path_ptr, path_len)
        try:
            return faaslet.dlopen(path)
        except Exception:
            logger.exception("dlopen(%s) failed", path)
            return -1

    @export("dlsym", (I32, I32, I32), (I32,))
    def dlsym(handle, name_ptr, name_len):
        name = _read_str(faaslet, name_ptr, name_len)
        try:
            return faaslet.dlsym(to_signed32(handle), name)
        except Exception:
            return -1

    @export("dlclose", (I32,), (I32,))
    def dlclose(handle):
        return faaslet.dlclose(to_signed32(handle))

    # ------------------------------------------------------------------
    # Memory management (grow/shrink only, per Tab. 2)
    # ------------------------------------------------------------------
    @export("sbrk", (I32,), (I32,))
    def sbrk(delta):
        return faaslet.sbrk(to_signed32(delta))

    @export("brk", (I32,), (I32,))
    def brk(addr):
        current = faaslet.brk_value()
        if addr == 0:
            return current
        if faaslet.sbrk(addr - current) == -1:
            return -1
        return 0

    @export("mmap", (I32,), (I32,))
    def mmap(length):
        # Anonymous, private, grow-only mapping at the end of linear memory.
        return faaslet.sbrk_pages(length)

    @export("munmap", (I32, I32), (I32,))
    def munmap(addr, length):
        # Linear memory never shrinks (as in WebAssembly); success no-op.
        return 0

    # ------------------------------------------------------------------
    # Networking (client-side only, via the virtual interface)
    # ------------------------------------------------------------------
    @export("socket", (I32, I32), (I32,))
    def socket(family, sock_type):
        try:
            return faaslet.netns.socket(family, sock_type)
        except NetworkPolicyError:
            return -1

    @export("connect", (I32, I32, I32, I32), (I32,))
    def connect(fd, host_ptr, host_len, port):
        try:
            faaslet.netns.connect(fd, _read_str(faaslet, host_ptr, host_len), port)
            return 0
        except (OSError, NetworkPolicyError):
            return -1

    @export("bind", (I32, I32, I32, I32), (I32,))
    def bind(fd, host_ptr, host_len, port):
        try:
            faaslet.netns.bind(fd, _read_str(faaslet, host_ptr, host_len), port)
            return 0
        except (OSError, NetworkPolicyError):
            return -1

    @export("nsend", (I32, I32, I32), (I32,))
    def nsend(fd, ptr, length):
        try:
            sent, _delay = faaslet.netns.send(fd, _read_bytes(faaslet, ptr, length))
            return sent
        except OSError:
            return -1

    @export("nrecv", (I32, I32, I32), (I32,))
    def nrecv(fd, ptr, length):
        try:
            data, _delay = faaslet.netns.recv(fd, length)
        except OSError:
            return -1
        _write_bytes(faaslet, ptr, data)
        return len(data)

    @export("nclose", (I32,), (I32,))
    def nclose(fd):
        faaslet.netns.close(fd)
        return 0

    # ------------------------------------------------------------------
    # File I/O (per-user virtual filesystem, WASI capability model)
    # ------------------------------------------------------------------
    @export("open", (I32, I32, I32), (I32,))
    def open_(path_ptr, path_len, flags):
        try:
            return faaslet.filesystem.open(_read_str(faaslet, path_ptr, path_len), flags)
        except FilesystemError:
            return -1

    @export("close", (I32,), (I32,))
    def close_(fd):
        try:
            faaslet.filesystem.close(fd)
            return 0
        except FilesystemError:
            return -1

    @export("dup", (I32,), (I32,))
    def dup(fd):
        try:
            return faaslet.filesystem.dup(fd)
        except FilesystemError:
            return -1

    @export("read", (I32, I32, I32), (I32,))
    def read(fd, ptr, length):
        try:
            data = faaslet.filesystem.read(fd, length)
        except FilesystemError:
            return -1
        _write_bytes(faaslet, ptr, data)
        return len(data)

    @export("write", (I32, I32, I32), (I32,))
    def write(fd, ptr, length):
        try:
            return faaslet.filesystem.write(fd, _read_bytes(faaslet, ptr, length))
        except FilesystemError:
            return -1

    @export("seek", (I32, I32, I32), (I32,))
    def seek(fd, offset, whence):
        try:
            return faaslet.filesystem.seek(fd, to_signed32(offset), whence)
        except FilesystemError:
            return -1

    @export("fstat_size", (I32, I32), (I32,))
    def fstat_size(path_ptr, path_len):
        try:
            return faaslet.filesystem.stat(_read_str(faaslet, path_ptr, path_len)).size
        except FilesystemError:
            return -1

    # ------------------------------------------------------------------
    # Guest threads (intra-Faaslet fork-join parallelism)
    # ------------------------------------------------------------------
    @export("thread_spawn", (I32, I32), (I32,))
    def thread_spawn(elem_index, argptr):
        # Spawn errors are traps (GuestThreadError), not -1 returns: a bad
        # spawn target is a program bug, not a recoverable I/O condition.
        return faaslet.thread_spawn(elem_index, argptr)

    @export("thread_join", (I32,), (I32,))
    def thread_join(tid):
        return faaslet.thread_join(to_signed32(tid))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    @export("gettime", (), (I64,))
    def gettime():
        return env.current_time_ns()

    @export("getrandom", (I32, I32), (I32,))
    def getrandom(ptr, length):
        data = env.random_bytes(length)
        _write_bytes(faaslet, ptr, data)
        return len(data)

    return imports
