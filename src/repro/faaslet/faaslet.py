"""The Faaslet: the paper's isolation abstraction (§3).

A Faaslet bundles, per Fig. 1:

* a **function** compiled to the wasm-like IR, executing in a private
  linear memory with SFI guarantees;
* optional **shared memory regions** mapped into that linear memory (§3.3),
  which is how the local state tier is exposed;
* a **network namespace** with its own shaped virtual interface;
* membership of a **CPU cgroup** (fuel quanta for fairness);
* a **WASI-capability filesystem** and the message-bus/chaining context,
  reached through the host interface (Tab. 2).

The runtime restores every Faaslet from a Proto-Faaslet snapshot
(:mod:`repro.faaslet.snapshot`); one built straight from a
:class:`FunctionDefinition` (validated, pre-code-generated at upload time)
serves the capture of that snapshot and standalone tools. Either way
instantiation *links* against the static host-interface table
(:mod:`repro.host.interface`): one binding per import the module declares,
made once in the Faaslet's life and reused by ``dlopen()``. A Faaslet
restored from a Proto-Faaslet is put back to it in place by
:meth:`Faaslet.reset` before every warm call, so no call sees what the one
before it left (§5.2). Whoever discards a Faaslet calls
:meth:`Faaslet.close`, which unmaps its shared regions and returns its
memory without waiting for the cycle collector.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

from repro.telemetry import span
from repro.wasm import Trap
from repro.wasm.codecache import GLOBAL_CODE_CACHE
from repro.wasm.codegen import CompiledFunction
from repro.wasm.instance import Instance
from repro.wasm.memory import LinearMemory
from repro.wasm.module import Module
from repro.wasm.types import PAGE_SIZE, Limits, MemoryType
from repro.wasm.validation import validate_module

from .netns import NetworkNamespace

logger = logging.getLogger(__name__)


def _host_imports(faaslet):
    """The Faaslet's lazily linked view of the static Tab. 2 table.

    Deferred import: repro.host depends on repro.faaslet, so the edge
    back to the host interface is resolved lazily to avoid an import cycle."""
    from repro.host.interface import build_host_imports

    return build_host_imports(faaslet)

_faaslet_ids = itertools.count(1)

#: Default per-function memory cap (§3.2: "each function has its own
#: pre-defined memory limit"). 1024 pages = 64 MiB.
DEFAULT_MAX_PAGES = 1024

#: Default entry point exported by guest functions.
ENTRY_EXPORT = "main"


@dataclass
class FunctionDefinition:
    """A deployed function: the output of the upload service (§5.2).

    Holds the validated module together with its pre-generated "object
    code" (flat-compiled functions), so instantiation never re-runs
    validation or code generation — those happened once, in the trusted
    environment, at upload time (§3.4).
    """

    name: str
    module: Module
    compiled: list[CompiledFunction] = field(default_factory=list)
    entry: str = ENTRY_EXPORT
    max_pages: int = DEFAULT_MAX_PAGES
    user: str = "default"

    @classmethod
    def build(cls, name: str, module: Module, **kwargs) -> "FunctionDefinition":
        """Validate and code-generate ``module`` (the trusted phases).

        Codegen goes through the cluster-wide code cache, so re-uploading
        the same module text (or spawning from a re-parsed copy) reuses
        the existing function list and the Python code generated for it.
        """
        validate_module(module)
        return cls(name, module, GLOBAL_CODE_CACHE.get_or_compile(module), **kwargs)


class FaasletExecutionError(RuntimeError):
    """The guest function trapped or misbehaved; carries the exit code."""


class Faaslet:
    """One isolated execution context for a deployed function."""

    def __init__(
        self,
        definition: FunctionDefinition,
        env,
        *,
        proto=None,
        fuel: int | None = None,
        tier: str | None = None,
        profile: bool = False,
    ):
        self.definition = definition
        self.env = env
        self.id = next(_faaslet_ids)
        self.name = f"faaslet-{definition.name}-{self.id}"
        self.user = definition.user

        # Per-Faaslet network namespace sharing the environment's endpoint
        # registry (the namespace is the isolation boundary; endpoints model
        # the outside world).
        endpoints = env.netns.endpoints if getattr(env, "netns", None) else {}
        self.netns = NetworkNamespace(self.name, endpoints=endpoints)
        # Per-user filesystem view (Tab. 2); environments without user
        # scoping fall back to their single filesystem.
        if hasattr(env, "filesystem_for"):
            self.filesystem = env.filesystem_for(self.user)
        else:
            self.filesystem = env.filesystem

        # Call context (host interface I/O).
        self.input_data: bytes = b""
        self.output_data: bytes = b""

        #: key -> (guest base address, region) of each mapped shared region.
        self._state_mappings: dict[str, tuple[int, "SharedRegion"]] = {}
        #: dlopen handles -> dynamically linked instances.
        self._dl_handles: dict[int, Instance] = {}
        self._next_dl_handle = 1
        #: Guest-thread runtime (created lazily on the first thread_spawn).
        self._thread_runtime: "GuestThreadRuntime | None" = None
        #: The Proto-Faaslet reset() returns to (None when built from the
        #: definition: a capture or a standalone tool).
        self.proto = proto
        #: Instructions the last call executed (what its cgroup is charged).
        self.fuel_consumed = 0

        module = definition.module
        #: The host interface as this Faaslet links against it: made once
        #: here, reused by dlopen(), so an import is bound to this Faaslet
        #: at most once in its life.
        self._imports = imports = _host_imports(self)
        if proto is not None:
            self.instance = proto.make_instance(imports, fuel=fuel, tier=tier)
            if profile:
                raise ValueError("profiling requires a cold (non-proto) spawn")
        else:
            min_pages = module.memory.limits.minimum if module.memory else 1
            memory = LinearMemory(
                MemoryType(Limits(min_pages, definition.max_pages))
            )
            self.instance = Instance(
                module,
                imports,
                memory=memory,
                fuel=fuel,
                validated=True,
                precompiled=definition.compiled,
                tier=tier,
                profile=profile,
            )
        self._brk = self.instance.memory.size_bytes if self.instance.memory else 0

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def call(self, input_data: bytes = b"", entry: str | None = None) -> tuple[int, bytes]:
        """Execute the function; returns ``(exit_code, output_bytes)``.

        A trap inside the guest is contained by the Faaslet boundary and
        reported as a non-zero exit code, never as a host exception.
        """
        self.input_data = bytes(input_data)
        self.output_data = b""
        with span(
            "guest.exec", function=self.definition.name, runtime="wasm"
        ) as sp:
            before = self.instance.instructions_executed
            try:
                result = self.instance.invoke(entry or self.definition.entry)
            except Trap as trap:
                logger.debug("%s trapped: %s", self.name, trap)
                sp.set_attr("trapped", True)
                return 1, self.output_data
            finally:
                self.fuel_consumed = self.instance.instructions_executed - before
                sp.set_attr("fuel_consumed", self.fuel_consumed)
        code = int(result) if isinstance(result, int) else 0
        return code, self.output_data

    def invoke_export(self, name: str, *args):
        """Call an arbitrary export (used by tests and language runtimes)."""
        with span(
            "guest.exec",
            function=self.definition.name,
            runtime="wasm",
            entry=name,
        ) as sp:
            before = self.instance.instructions_executed
            result = self.instance.invoke(name, *args)
            sp.set_attr(
                "fuel_consumed", self.instance.instructions_executed - before
            )
        return result

    # ------------------------------------------------------------------
    # Guest threads (intra-Faaslet fork-join parallelism)
    # ------------------------------------------------------------------
    @property
    def thread_runtime(self) -> "GuestThreadRuntime":
        """The lazily-created guest-thread scheduler for this Faaslet."""
        if self._thread_runtime is None:
            from .threads import GuestThreadRuntime

            # Environments wired into a cluster expose its metrics
            # registry; the runtime's thread counters then aggregate
            # cluster-wide instead of landing in the standalone registry.
            self._thread_runtime = GuestThreadRuntime(
                self.instance,
                name=self.name,
                metrics=getattr(self.env, "metrics", None),
            )
        return self._thread_runtime

    def thread_spawn(self, elem_index: int, argptr: int) -> int:
        """Spawn a guest thread on table entry ``elem_index`` (host call)."""
        return self.thread_runtime.spawn(elem_index, argptr)

    def thread_join(self, tid: int) -> int:
        """Join a guest thread, scheduling the region to completion."""
        return self.thread_runtime.join(tid)

    # ------------------------------------------------------------------
    # Shared state regions (§3.3 / §4.2)
    # ------------------------------------------------------------------
    def map_state_region(self, key: str, size: int | None, pull: bool = True) -> int:
        """Map the local-tier replica of ``key`` into linear memory and
        return the guest address of the value's first byte."""
        mapped = self._state_mappings.get(key)
        if mapped is not None:
            return mapped[0]
        tier = self.env.state.tier
        if size is not None and not tier.client.exists(key) and not tier.has_replica(key):
            replica = tier.create(key, size)
        elif pull and not tier.has_replica(key):
            replica = tier.pull(key)
        else:
            replica = tier.replica(key, size)
        base = replica.region.map_into(self.instance.memory)
        self._state_mappings[key] = base, replica.region
        return base

    def unmap_state(self) -> None:
        """Unmap every shared region, so a region counts live mappings only
        (the pool runs this on release: an idle Faaslet holds none)."""
        for base, region in self._state_mappings.values():
            region.unmap_from(self.instance.memory, base)
        self._state_mappings.clear()

    @property
    def mapped_state_keys(self) -> list[str]:
        return sorted(self._state_mappings)

    # ------------------------------------------------------------------
    # Memory management (host interface: brk/sbrk/mmap)
    # ------------------------------------------------------------------
    def brk_value(self) -> int:
        return self._brk

    def sbrk(self, delta: int) -> int:
        """Grow the private region; returns the old break or -1 on failure
        (the per-function memory limit, §3.2)."""
        old = self._brk
        if delta <= 0:
            return old
        new_brk = old + delta
        mem = self.instance.memory
        needed_pages = -(-new_brk // PAGE_SIZE)
        if needed_pages > mem.size_pages:
            if mem.grow(needed_pages - mem.size_pages) == -1:
                return -1
        self._brk = new_brk
        return old

    def sbrk_pages(self, nbytes: int) -> int:
        """Page-aligned allocation for ``mmap``; returns the base address."""
        mem = self.instance.memory
        pages = -(-nbytes // PAGE_SIZE)
        old_pages = mem.grow(pages)
        if old_pages == -1:
            return -1
        self._brk = mem.size_bytes
        return old_pages * PAGE_SIZE

    # ------------------------------------------------------------------
    # Dynamic linking (Tab. 2)
    # ------------------------------------------------------------------
    def dlopen(self, path: str) -> int:
        """Load a module from the virtual filesystem into this Faaslet.

        The loaded code shares the Faaslet's linear memory and host
        interface, goes through full validation (``env.load_module``), and
        is therefore "covered by the same safety guarantees as its parent
        function" (§3.2).
        """
        module = self.env.load_module(path, filesystem=self.filesystem)
        lib = Instance(
            module,
            self._imports,
            memory=self.instance.memory,
            validated=True,
            apply_data=True,
        )
        handle = self._next_dl_handle
        self._next_dl_handle += 1
        self._dl_handles[handle] = lib
        return handle

    def dlsym(self, handle: int, name: str) -> int:
        """Resolve ``name`` in a loaded library; returns a table index the
        guest can ``call_indirect`` through."""
        lib = self._dl_handles.get(handle)
        if lib is None:
            raise KeyError(f"bad dlopen handle {handle}")
        export = lib.module.find_export(name, "func")
        return self.instance.add_table_entry(("ext", lib, export.index))

    def dlclose(self, handle: int) -> int:
        return 0 if self._dl_handles.pop(handle, None) is not None else -1

    # ------------------------------------------------------------------
    # Reset (multi-tenant reuse, §5.2)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Put the Faaslet back to its Proto-Faaslet, in place, so nothing
        of the last call reaches the next, maybe another tenant's (§5.2;
        the warm pool runs this before every warm call). Memory aliases
        the frozen pages again (grown and privatised pages go), globals and
        table take their snapshot values; the break, thread runtime, dlopen
        handles and state mappings go. The instance, its linked imports,
        fuel and counters stay, and no restore is counted."""
        proto, instance = self.proto, self.instance
        if proto is None:
            raise RuntimeError(f"{self.name} has no Proto-Faaslet to reset from")
        self.unmap_state()
        if instance.memory is not None:
            instance.memory.alias_frozen(proto.frozen_pages)
        for g, (_, _, value) in zip(instance.globals, proto.globals_snapshot):
            g.value = value
        table = proto.table_snapshot
        instance.table = None if table is None else list(table)
        instance._thread_runtime = self._thread_runtime = None
        self._brk = proto.size_bytes
        self._dl_handles.clear()
        self.input_data = self.output_data = b""
        self.fuel_consumed = 0

    def close(self) -> None:
        """Tear the Faaslet down: unmap its shared regions, drop the
        instance (its pages), the linked imports, dlopen handles and the
        thread runtime.

        ``faaslet → instance → funcs → bound host function → faaslet`` is a
        reference cycle (and so is instance ↔ thread runtime), so merely
        forgetting a Faaslet leaves its memory to the cycle collector;
        ``close()`` breaks the cycles and frees it now. Idempotent. Only for
        an idle Faaslet — never one a guest is still running in."""
        if self.instance is not None:
            self.unmap_state()
            self.instance._thread_runtime = None
        self.instance = self._imports = None
        self._dl_handles.clear()
        self._thread_runtime = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_footprint(self) -> int:
        """Private bytes uniquely owned by this Faaslet (COW pages still
        aliasing a snapshot and shared regions excluded) — the analogue of
        the PSS measurement in Tab. 3."""
        mem = self.instance.memory
        return mem.resident_private_bytes() if mem else 0

    @property
    def cpu_used(self) -> int:
        return self.instance.instructions_executed
