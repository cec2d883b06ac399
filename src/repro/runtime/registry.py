"""The upload service and function registry (§5.2).

Uploading a wasm function runs the trusted pipeline once: compile (for
minilang sources), validate, generate object code, run the function's
initialisation code and capture its Proto-Faaslet, publish the snapshot for
every host to cold-start from, and store the artifacts in the shared object
store. Only then is the function registered: a registered wasm function
always has a published Proto-Faaslet, and an upload that raises at any step
leaves the registry, the snapshot repository and the object store as they
were — a re-upload whose ``init`` traps keeps the previous version serving.

Besides wasm guests, the registry accepts *host-native Python functions*
(:class:`PythonFunctionDefinition`). These stand in for the paper's
dynamic-language workloads (CPython compiled to WebAssembly): the function
body runs as host Python, but all I/O, state and chaining go through the
same interface surface as wasm guests. See DESIGN.md §1 for why this
substitution preserves the measured behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.faaslet import FunctionDefinition, ProtoFaaslet, SnapshotRepository
from repro.host.filesystem import GlobalObjectStore
from repro.minilang import compile_source
from repro.telemetry import MetricsRegistry, span
from repro.wasm import parse_module
from repro.wasm.module import Module


@dataclass
class PythonFunctionDefinition:
    """A host-native function: ``fn(ctx)`` with a Faasm-like context.

    ``ctx`` is a :class:`~repro.runtime.pyguest.PythonCallContext` exposing
    input/output, chaining and the state API — the same capabilities a wasm
    guest reaches through the host interface.
    """

    name: str
    fn: Callable
    user: str = "default"


class FunctionRegistry:
    """Cluster-wide function registry backed by the shared object store."""

    def __init__(
        self,
        object_store: GlobalObjectStore | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.object_store = object_store or GlobalObjectStore()
        self._functions: dict[str, FunctionDefinition | PythonFunctionDefinition] = {}
        #: The content-addressed snapshot home every host delta-pulls from.
        self.snapshots = SnapshotRepository(metrics)
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    # Upload
    # ------------------------------------------------------------------
    def upload(
        self,
        name: str,
        source: "str | Module",
        *,
        lang: str = "minilang",
        init: str | None = None,
        **definition_kwargs,
    ) -> FunctionDefinition:
        """Upload a wasm guest function.

        ``source`` is minilang source (``lang="minilang"``), text-format
        module source (``lang="wat"``), or an already-built module. The
        untrusted compile step runs first; validation and code generation
        (the trusted steps of §3.4) happen inside
        :meth:`FunctionDefinition.build`. Then :meth:`generate_proto`
        runs ``init`` (if given) and publishes the Proto-Faaslet, the
        artifacts land in the object store, and the function is registered
        last, so calls see the new version only once it can cold-start.
        """
        from repro.wasm import print_module
        from repro.wasm.objectfile import write_object

        with span("function.upload", function=name, lang=lang):
            if isinstance(source, Module):
                module = source
            elif lang == "minilang":
                module = compile_source(source, name)
            elif lang == "wat":
                module = parse_module(source)
            else:
                raise ValueError(f"unknown language {lang!r}")
            definition = FunctionDefinition.build(name, module, **definition_kwargs)
        # The disassembly is a readable record of exactly what was validated
        # and deployed; the object file (module + generated code) is what
        # any host can instantiate from without recompiling (§3.4/§5.2).
        # Both are encoded before anything is published.
        artifacts = {
            f"functions/{name}.wat": print_module(module).encode(),
            f"functions/{name}.obj": write_object(
                definition.module,
                definition.compiled,
                meta={
                    "entry": definition.entry,
                    "max_pages": definition.max_pages,
                    "user": definition.user,
                },
            ),
        }
        if isinstance(source, str):
            artifacts[f"functions/{name}.src"] = source.encode()
        self.generate_proto(definition, init=init)
        for path, data in artifacts.items():
            self.object_store.upload(path, data)
        with self._mutex:
            self._functions[name] = definition
        return definition

    def register_python(
        self, name: str, fn: Callable, user: str = "default"
    ) -> PythonFunctionDefinition:
        """Register a host-native Python function (CPython-workload path)."""
        definition = PythonFunctionDefinition(name, fn, user)
        with self._mutex:
            self._functions[name] = definition
        return definition

    # ------------------------------------------------------------------
    # Proto-Faaslets
    # ------------------------------------------------------------------
    def generate_proto(
        self, definition: FunctionDefinition, init: "str | Callable | None" = None
    ) -> None:
        """Capture and publish the Proto-Faaslet of ``definition`` (called
        by :meth:`upload` before it registers the function).

        The snapshot enters the content-addressed plane: its pages land in
        the cluster :class:`~repro.faaslet.pagestore.SnapshotRepository`
        (deduplicated against every other published snapshot, previous
        versions of this function included) and the object store gets the
        *manifest* — ordered page digests plus globals and table — not a
        monolithic page blob. Hosts restore by delta-pulling only the
        pages their local PageStore is missing.
        """
        from repro.host.environment import StandaloneEnvironment

        name = definition.name
        scratch_env = StandaloneEnvironment(
            object_store=self.object_store, host="upload-service"
        )
        with span("snapshot.capture", function=name) as sp:
            proto = ProtoFaaslet.capture(definition, scratch_env, init=init)
            sp.set_attr("pages", len(proto.frozen_pages))
            manifest = self.snapshots.publish(name, proto)
            sp.set_attr("version", manifest.version)
        self.object_store.upload(f"protos/{name}.manifest", manifest.to_bytes())

    # ------------------------------------------------------------------
    def load_from_object_store(self, name: str) -> FunctionDefinition:
        """Reconstruct a deployed function from its stored object file —
        the path a host that never saw the upload uses to cold-start. It
        registers nothing: only :meth:`upload` does."""
        from repro.wasm.objectfile import read_object

        data = self.object_store.get(f"functions/{name}.obj")
        if data is None:
            raise KeyError(f"no object file for {name!r}")
        module, compiled, meta = read_object(data)
        # Seed the cluster-wide code cache keyed by the object file's own
        # bytes (restored modules carry no bodies, so printed text cannot
        # key them). Repeated loads of the same artifact then share one
        # compiled list — and its lazily-generated Python code — instead
        # of re-running either compilation step.
        import hashlib

        from repro.wasm.codecache import GLOBAL_CODE_CACHE

        obj_key = "obj:" + hashlib.sha256(data).hexdigest()
        compiled = GLOBAL_CODE_CACHE.seed_with_key(module, obj_key, compiled)
        return FunctionDefinition(
            name,
            module,
            compiled,
            entry=meta.get("entry", "main"),
            max_pages=meta.get("max_pages", 1024),
            user=meta.get("user", "default"),
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> FunctionDefinition | PythonFunctionDefinition:
        # Lock-free: dict reads are atomic under the GIL and definitions
        # are only ever added or replaced, never removed — every executing
        # call resolves its function here, so a mutex would put a single
        # cluster-wide lock on the execution hot path.
        definition = self._functions.get(name)
        if definition is None:
            raise KeyError(f"unknown function {name!r}")
        return definition

    def exists(self, name: str) -> bool:
        return name in self._functions

    # ------------------------------------------------------------------
    @staticmethod
    def code_cache_stats() -> dict[str, int]:
        """Hit/miss/seed counters of the cluster-wide compiled-module cache
        (the analogue of §3.4's shared object-code measurements)."""
        from repro.wasm.codecache import GLOBAL_CODE_CACHE

        return GLOBAL_CODE_CACHE.stats()
