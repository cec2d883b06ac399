"""Cluster-wide compiled-module cache keyed by structural module hash.

The paper amortises WAVM's expensive code generation by caching object
code in the global object store and ``mmap``-ing the shared machine code
into every Faaslet on the same host (§3.4, §5.2). This module is the
Python analogue: flat codegen (and, transitively, the lazily-built
Python function attached to each
:class:`~repro.wasm.codegen.CompiledFunction`) runs **once per distinct
module text** per process, no matter how many uploads, spawns, dlopens or
Proto-Faaslet restores reference it.

The key is a sha256 of the module's printed text — structural, not
identity-based — so two separately parsed or separately built modules
with identical content share one compiled-function list, mirroring how
every host in the cluster derives the same machine code from the same
uploaded object file. The hash is memoised on the :class:`Module` object;
mutating a module after it has been instantiated is unsupported (modules
are immutable after upload in the paper's model).

Counters (``hits``/``misses``/``seeded``) are exposed for the registry's
cache statistics and the churn benchmarks.
"""

from __future__ import annotations

import hashlib
import threading

from repro.telemetry import MetricsRegistry, span

from .codegen import CompiledFunction, compile_module
from .module import Module

_KEY_ATTR = "_codecache_key"

#: ISA/tier revision folded into every structural cache key. Bump when the
#: instruction set or the compiled-code shape changes (new opcode families,
#: different lowering), so object code cached by an older build is never
#: reused for a module that now compiles differently — the analogue of a
#: machine-code version tag in an on-disk object cache. "2" added the
#: vector ISA (v128), shared-memory atomics and the guest-thread ops; "3"
#: replaced closure-threaded blocks with whole-function compiled code;
#: "4" checks an innermost counted loop's range once per entry (its guard),
#: and runs a guarded iteration that is one superblock as one ``for`` pass;
#: "5" divides with the Python operator where its result is the wasm one.
ISA_VERSION = "repro-isa-5"


def module_key(module: Module) -> str:
    """Structural hash of ``module`` (memoised on the instance).

    The hash covers the printed module text *and* :data:`ISA_VERSION`, so
    a cache persisted across an ISA revision cannot serve stale code.
    """
    key = getattr(module, _KEY_ATTR, None)
    if key is None:
        from .printer import print_module

        hasher = hashlib.sha256(ISA_VERSION.encode() + b"\x00")
        hasher.update(print_module(module).encode())
        key = hasher.hexdigest()
        setattr(module, _KEY_ATTR, key)
    return key


class ModuleCodeCache:
    """Process-wide map of module hash → compiled function list.

    Hit/miss/seed counters live in a
    :class:`~repro.telemetry.metrics.MetricsRegistry` (the cache's own by
    default); the historic ``hits``/``misses``/``seeded`` attributes are
    views over those counters, so
    :meth:`~repro.runtime.registry.FunctionRegistry.code_cache_stats`
    consumers and the churn benchmarks see the same numbers as a
    registry snapshot does.
    """

    def __init__(self, metrics=None) -> None:
        self._entries: dict[str, list[CompiledFunction]] = {}
        self._lock = threading.Lock()
        # `is None`, not truthiness: an empty registry has len() == 0.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("codecache.hits")
        self._misses = self.metrics.counter("codecache.misses")
        self._seeded = self.metrics.counter("codecache.seeded")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def seeded(self) -> int:
        return self._seeded.value

    def get_or_compile(self, module: Module) -> list[CompiledFunction]:
        """Return the cached compiled functions for ``module``, running
        flat codegen on first sight of its hash."""
        key = module_key(module)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self._hits.inc()
                return compiled
            self._misses.inc()
        # Compile outside the lock; a racing duplicate is harmless and the
        # first writer wins, keeping generated code shared.
        with span("module.compile", key=key[:12]) as sp:
            compiled = compile_module(module)
            sp.set_attr("functions", len(compiled))
        with self._lock:
            return self._entries.setdefault(key, compiled)

    def seed_with_key(
        self, module: Module, key: str, compiled: list[CompiledFunction]
    ) -> list[CompiledFunction]:
        """Seed under an explicit key and return the canonical entry.

        Modules restored from object files carry no function bodies (code
        ships as the compiled section), so their printed text does not
        determine their code and cannot be the cache key. Callers hash the
        object file itself instead. The key is bound to the module so any
        later :func:`module_key` consult resolves to the same entry, and
        the first-seeded list wins so every loader shares one compiled —
        and transitively one generated-code — function list.
        """
        setattr(module, _KEY_ATTR, key)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._hits.inc()
                return existing
            self._entries[key] = compiled
            self._seeded.inc()
            return compiled

    def lookup(self, module: Module) -> list[CompiledFunction] | None:
        """Non-counting peek (used by tests and diagnostics)."""
        with self._lock:
            return self._entries.get(module_key(module))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "seeded": self.seeded,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self._hits.reset()
        self._misses.reset()
        self._seeded.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-global cache every Instance/registry consults by default.
GLOBAL_CODE_CACHE = ModuleCodeCache()


def global_code_cache() -> ModuleCodeCache:
    """Accessor for the process-global :data:`GLOBAL_CODE_CACHE`."""
    return GLOBAL_CODE_CACHE
