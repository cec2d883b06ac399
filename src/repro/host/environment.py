"""The environment a Faaslet's host interface is bound to.

The host interface (Tab. 2) needs capabilities that belong to the embedding
runtime: function chaining, the state API for the local host, a virtual
filesystem, network endpoints, a clock and randomness. This module defines
the :class:`FaasletEnvironment` contract and a self-contained
:class:`StandaloneEnvironment` used by tests and single-Faaslet examples;
the FAASM runtime provides its own implementation wired into the scheduler
and message bus.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod

from repro.faaslet.netns import NetworkNamespace
from repro.state.api import StateAPI
from repro.state.kv import GlobalStateStore, StateClient
from repro.state.local import LocalTier
from repro.telemetry import MetricsRegistry
from repro.wasm.module import Module

from .filesystem import GlobalObjectStore, VirtualFilesystem


class ChainError(RuntimeError):
    """A chained-call operation failed (unknown function, bad call id)."""


class FaasletEnvironment(ABC):
    """Capabilities the host interface draws on, supplied by the embedder."""

    state: StateAPI
    filesystem: VirtualFilesystem
    netns: NetworkNamespace
    #: Where the host interface counts what it swallows
    #: (``errors.swallowed{site=}``); a cluster supplies its own registry.
    metrics: MetricsRegistry

    def filesystem_for(self, user: str) -> VirtualFilesystem:
        """The per-user filesystem view (Tab. 2: "per-user virtual
        filesystem access"). Defaults to one cached view per user over the
        same global object store."""
        cache = getattr(self, "_user_filesystems", None)
        if cache is None:
            cache = self._user_filesystems = {self.filesystem.user: self.filesystem}
        vfs = cache.get(user)
        if vfs is None:
            vfs = cache[user] = VirtualFilesystem(self.filesystem.store, user)
        return vfs

    @abstractmethod
    def chain_call(self, name: str, input_data: bytes) -> int:
        """Invoke function ``name`` asynchronously; returns a call id."""

    @abstractmethod
    def await_call(self, call_id: int) -> int:
        """Block until ``call_id`` finishes; returns its exit code."""

    @abstractmethod
    def get_call_output(self, call_id: int) -> bytes:
        """Output bytes of a completed chained call."""

    def current_time_ns(self) -> int:
        """Per-user monotonic clock (Tab. 2 ``gettime``)."""
        return time.monotonic_ns()

    def random_bytes(self, n: int) -> bytes:
        """Tab. 2 ``getrandom`` — backed by the host's ``/dev/urandom``."""
        return os.urandom(n)

    def load_module(self, path: str, filesystem: VirtualFilesystem | None = None) -> Module:
        """Load, compile if necessary, and validate a module for ``dlopen``.

        ``.wat`` files are assembled; ``.ml`` files are compiled with the
        minilang toolchain. Both pass through trusted validation, as §3.2
        requires for dynamically loaded code. ``filesystem`` scopes the
        lookup to the calling Faaslet's capability view.
        """
        from repro.minilang import build as build_minilang
        from repro.wasm import parse_module, validate_module

        data = (filesystem or self.filesystem).read_file(path)
        text = data.decode("utf-8")
        if path.endswith(".ml"):
            return build_minilang(text)
        module = parse_module(text)
        validate_module(module)
        return module


class StandaloneEnvironment(FaasletEnvironment):
    """A one-host environment with synchronous chaining.

    Chained functions run immediately (depth-first) via a name → callable
    registry; each callable receives the input bytes and returns output
    bytes. Enough to exercise the full host interface without the runtime.
    """

    def __init__(
        self,
        store: GlobalStateStore | None = None,
        object_store: GlobalObjectStore | None = None,
        host: str = "standalone",
        user: str = "default",
    ):
        self.global_state = store or GlobalStateStore()
        self.object_store = object_store or GlobalObjectStore()
        self.state = StateAPI(LocalTier(host, StateClient(self.global_state)))
        self.filesystem = VirtualFilesystem(self.object_store, user)
        self.netns = NetworkNamespace(f"ns-{host}")
        self.metrics = MetricsRegistry()
        self.functions: dict[str, "callable"] = {}
        self._outputs: dict[int, bytes] = {}
        self._codes: dict[int, int] = {}
        self._next_call_id = 1

    def register_function(self, name: str, fn) -> None:
        """Register ``fn(input_bytes) -> bytes`` as a chainable function."""
        self.functions[name] = fn

    def chain_call(self, name: str, input_data: bytes) -> int:
        fn = self.functions.get(name)
        if fn is None:
            raise ChainError(f"unknown function {name!r}")
        call_id = self._next_call_id
        self._next_call_id += 1
        try:
            output = fn(bytes(input_data))
            self._outputs[call_id] = bytes(output) if output is not None else b""
            self._codes[call_id] = 0
        except Exception:
            self.metrics.counter("errors.swallowed", site="standalone.chain").inc()
            self._outputs[call_id] = b""
            self._codes[call_id] = 1
        return call_id

    def await_call(self, call_id: int) -> int:
        if call_id not in self._codes:
            raise ChainError(f"unknown call id {call_id}")
        return self._codes[call_id]

    def get_call_output(self, call_id: int) -> bytes:
        if call_id not in self._outputs:
            raise ChainError(f"unknown call id {call_id}")
        return self._outputs[call_id]
