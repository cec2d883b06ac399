"""Proto-Faaslets: ahead-of-time snapshots with copy-on-write restore (§5.2).

A Proto-Faaslet captures a function's execution state — linear memory
(stack, heap, data), globals and function table — after user-defined
initialisation code has run. Restoring builds a new instance whose memory
*aliases* the snapshot's frozen pages copy-on-write, so the restore cost is
proportional to the page count (pointer copies), not the memory size; pages
are physically copied only when first written. This is what makes restores
take hundreds of microseconds instead of the hundreds of milliseconds a
container boot costs (Tab. 3, Fig. 10).

Snapshots are OS-independent plain bytes, restorable on another host — the
property that distinguishes Proto-Faaslets from single-machine snapshotting
systems like SEUSS or Catalyzer. The one wire form is content-addressed: a
:class:`SnapshotManifest` (ordered page digests + globals/table blobs,
:meth:`~SnapshotManifest.to_bytes` / :meth:`~SnapshotManifest.from_bytes`)
travels instead of the pages, and hosts pull only the 64 KiB pages their
:class:`~repro.faaslet.pagestore.PageStore` is missing.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass

from repro.telemetry import MetricsRegistry, span
from repro.wasm.instance import GlobalInstance, Instance
from repro.wasm.memory import ZERO_DIGEST, LinearMemory, page_digest
from repro.wasm.types import PAGE_SIZE, Limits, MemoryType

from .faaslet import Faaslet, FunctionDefinition

#: Manifest wire header: magic, format version, function-name length,
#: snapshot version, page count, globals blob len, table blob len. Followed
#: by the name (utf-8), the ordered raw digests (16 bytes each), the blobs.
_MANIFEST_MAGIC = b"FMAN"
_MANIFEST_HEADER = struct.Struct("<4sHHIIII")
_DIGEST_RAW_LEN = 16

#: Fallback registry for the ``snapshot.restores`` series of Proto-Faaslets
#: created outside a cluster (benchmarks, standalone tools).
_STANDALONE_METRICS = MetricsRegistry()


class SnapshotError(RuntimeError):
    """The Faaslet cannot be snapshotted in its current state."""


@dataclass(frozen=True)
class SnapshotManifest:
    """The content-addressed description of one Proto-Faaslet version.

    The manifest is what the object store and the wire carry instead of the
    page bytes: an *ordered* digest per 64 KiB page (all-zero pages appear
    as :data:`~repro.wasm.memory.ZERO_DIGEST` and never have a payload),
    plus the pickled globals and table snapshots, which are tiny. Restoring
    a snapshot anywhere requires only the manifest and whichever payload
    pages the restoring host's PageStore lacks.
    """

    function: str
    version: int
    page_digests: tuple[str, ...]
    globals_blob: bytes
    table_blob: bytes

    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return len(self.page_digests)

    @property
    def memory_bytes(self) -> int:
        return len(self.page_digests) * PAGE_SIZE

    def payload_digests(self) -> list[str]:
        """Unique non-zero digests, in first-appearance order — the pages
        that actually have bytes behind them."""
        seen: set[str] = set()
        out: list[str] = []
        for digest in self.page_digests:
            if digest != ZERO_DIGEST and digest not in seen:
                seen.add(digest)
                out.append(digest)
        return out

    @property
    def zero_pages(self) -> int:
        return sum(1 for d in self.page_digests if d == ZERO_DIGEST)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        name = self.function.encode()
        header = _MANIFEST_HEADER.pack(
            _MANIFEST_MAGIC,
            1,
            len(name),
            self.version,
            len(self.page_digests),
            len(self.globals_blob),
            len(self.table_blob),
        )
        digests = b"".join(bytes.fromhex(d) for d in self.page_digests)
        return header + name + digests + self.globals_blob + self.table_blob

    @classmethod
    def from_bytes(cls, data: "bytes | bytearray | memoryview") -> "SnapshotManifest":
        """Parse a manifest received from outside. Raises ``ValueError``
        when ``data`` lacks the ``FMAN`` header, names a format other than
        1, or is shorter than its header says."""
        view = memoryview(data)
        if len(view) < _MANIFEST_HEADER.size:
            raise ValueError("not a snapshot manifest: no FMAN header")
        magic, fmt, name_len, version, n_pages, glen, tlen = (
            _MANIFEST_HEADER.unpack_from(view, 0)
        )
        if magic != _MANIFEST_MAGIC or fmt != 1:
            raise ValueError("not a snapshot manifest")
        expected = (
            _MANIFEST_HEADER.size + name_len + n_pages * _DIGEST_RAW_LEN
            + glen + tlen
        )
        if len(view) < expected:
            raise ValueError(
                f"truncated snapshot manifest: {len(view)} of {expected} bytes"
            )
        pos = _MANIFEST_HEADER.size
        name = bytes(view[pos : pos + name_len]).decode()
        pos += name_len
        digests = []
        for _ in range(n_pages):
            digests.append(bytes(view[pos : pos + _DIGEST_RAW_LEN]).hex())
            pos += _DIGEST_RAW_LEN
        globals_blob = bytes(view[pos : pos + glen])
        pos += glen
        table_blob = bytes(view[pos : pos + tlen])
        return cls(name, version, tuple(digests), globals_blob, table_blob)


class ProtoFaaslet:
    """An initialised-execution-state snapshot for one function."""

    def __init__(
        self,
        definition: FunctionDefinition,
        frozen_pages: list[memoryview],
        globals_snapshot: list[tuple],
        table_snapshot: list[int | None] | None,
        page_digests: list[str] | None = None,
        version: int = 0,
        metrics: MetricsRegistry | None = None,
    ):
        self.definition = definition
        self.frozen_pages = frozen_pages
        self.globals_snapshot = globals_snapshot
        self.table_snapshot = table_snapshot
        #: Ordered content digests, one per frozen page (computed lazily
        #: unless capture/restore already knows them).
        self._page_digests = page_digests
        #: Manifest version this proto was materialised from (0 = local).
        self.version = version
        # Restores land in the ``snapshot.restores`` registry series (its
        # Counter is lock-protected: executor threads on one host race to
        # restore the same proto). The per-proto tally stays a bare int —
        # restore is the Tab. 3 hot path, and one synchronised counter per
        # restore is the accuracy/overhead point chosen here.
        self._restores = 0
        self._restore_series = (
            metrics if metrics is not None else _STANDALONE_METRICS
        ).counter("snapshot.restores", function=definition.name)

    @property
    def restore_count(self) -> int:
        """Number of times this snapshot has been restored (telemetry)."""
        return self._restores

    @property
    def page_digests(self) -> list[str]:
        """Ordered per-page content digests (the manifest's page list)."""
        if self._page_digests is None:
            self._page_digests = [page_digest(v) for v in self.frozen_pages]
        return self._page_digests

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        definition: FunctionDefinition,
        env,
        init: "callable | str | None" = None,
    ) -> "ProtoFaaslet":
        """Run user-defined initialisation code in a fresh Faaslet and
        snapshot the result (§5.2).

        ``init`` may be the name of an exported guest function to run, a
        Python callable receiving the Faaslet, or ``None`` to snapshot the
        just-instantiated state.
        """
        faaslet = Faaslet(definition, env)
        if isinstance(init, str):
            faaslet.instance.invoke(init)
        elif callable(init):
            init(faaslet)
        return cls.capture_from(faaslet)

    @classmethod
    def capture_from(cls, faaslet: Faaslet) -> "ProtoFaaslet":
        """Snapshot an existing Faaslet's current execution state."""
        instance = faaslet.instance
        if faaslet.mapped_state_keys:
            raise SnapshotError(
                "cannot snapshot a Faaslet with mapped shared state regions"
            )
        runtime = getattr(instance, "_thread_runtime", None)
        if runtime is not None and runtime.live_threads:
            # A parked guest thread's state lives on a host Python stack,
            # which no byte-level snapshot can capture.
            raise SnapshotError(
                "cannot snapshot a Faaslet with live guest threads"
            )
        if instance.memory is None:
            frozen: list[memoryview] = []
            digests: list[str] = []
        else:
            frozen, digests = instance.memory.freeze_with_digests()
        globals_snapshot = [
            (g.valtype, g.mutable, g.value) for g in instance.globals
        ]
        table_snapshot = None
        if instance.table is not None:
            for entry in instance.table:
                if isinstance(entry, tuple):
                    raise SnapshotError(
                        "cannot snapshot a Faaslet with dynamically linked "
                        "table entries"
                    )
            table_snapshot = list(instance.table)
        return cls(
            faaslet.definition,
            frozen,
            globals_snapshot,
            table_snapshot,
            page_digests=digests,
        )

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def make_instance(
        self,
        imports: dict,
        fuel: int | None = None,
        tier: str | None = None,
    ) -> Instance:
        """Build a wasm instance from the snapshot (the restore fast path:
        no validation, no codegen, no data copies — COW page aliasing).

        The restored instance shares ``definition.compiled`` — and with it
        any generated Python code already attached to those functions — so
        restores never re-run either compilation step."""
        with span(
            "snapshot.restore",
            function=self.definition.name,
            pages=len(self.frozen_pages),
        ):
            module = self.definition.module
            funcs: list = []
            for imp in module.imports:
                funcs.append(imports[(imp.module, imp.name)])
            funcs.extend(self.definition.compiled)
            memory = None
            if self.frozen_pages or module.memory is not None:
                memtype = MemoryType(
                    Limits(len(self.frozen_pages), self.definition.max_pages)
                )
                memory = LinearMemory.from_frozen_pages(self.frozen_pages, memtype)
            globals_ = [
                GlobalInstance(vt, mut, val) for vt, mut, val in self.globals_snapshot
            ]
            table = list(self.table_snapshot) if self.table_snapshot is not None else None
            self._restores += 1
            self._restore_series.inc()
            return Instance.from_parts(
                module, funcs, memory, globals_, table, fuel=fuel, tier=tier
            )

    def restore(
        self, env, fuel: int | None = None, tier: str | None = None
    ) -> Faaslet:
        """Spawn a fresh Faaslet from this snapshot."""
        return Faaslet(self.definition, env, proto=self, fuel=fuel, tier=tier)

    # ------------------------------------------------------------------
    # Manifest bridge (the content-addressed data plane)
    # ------------------------------------------------------------------
    def manifest(self, version: int = 1) -> SnapshotManifest:
        """This snapshot's content-addressed description (no page bytes)."""
        return SnapshotManifest(
            self.definition.name,
            version,
            tuple(self.page_digests),
            pickle.dumps(self.globals_snapshot),
            pickle.dumps(self.table_snapshot),
        )

    @classmethod
    def from_manifest(
        cls,
        definition: FunctionDefinition,
        manifest: SnapshotManifest,
        pages: list[memoryview],
        metrics: MetricsRegistry | None = None,
    ) -> "ProtoFaaslet":
        """Rebuild a proto whose frozen pages alias ``pages`` (typically
        PageStore-resident views, shared with every other snapshot on the
        host that contains the same content)."""
        if len(pages) != manifest.n_pages:
            raise ValueError(
                f"manifest describes {manifest.n_pages} pages, got {len(pages)}"
            )
        return cls(
            definition,
            pages,
            pickle.loads(manifest.globals_blob),
            pickle.loads(manifest.table_blob),
            page_digests=list(manifest.page_digests),
            version=manifest.version,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return len(self.frozen_pages) * PAGE_SIZE
