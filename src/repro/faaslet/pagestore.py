"""Content-addressed snapshot distribution (the Proto-Faaslet data plane).

The paper's scalability story (Tab. 3, Fig. 10) needs Proto-Faaslet
restores to be cheap *anywhere in the cluster*, but shipping the whole
snapshot for every cross-host restore makes migration cost O(snapshot
size). This module makes it O(delta):

* :class:`PageStore` — one per host: a reference-counted,
  content-addressed store of 64 KiB pages. Every snapshot resident on the
  host aliases pages out of this store, so two snapshots (or two versions
  of one function) that share content store it once. All-zero pages are
  never stored: :data:`~repro.wasm.memory.ZERO_DIGEST` is intrinsically
  resident, backed by the shared zero page.

* :class:`SnapshotRepository` — one per cluster (owned by the upload
  service / function registry): the authoritative page store plus the
  per-function :class:`~repro.faaslet.snapshot.SnapshotManifest` chain,
  each manifest kept with the definition it was captured from.
  Publishing a new snapshot version bumps the manifest and refcounts; the
  pages of the previous version that the new one still uses are shared,
  the rest are released.

* :class:`HostSnapshotCache` — the pull client each runtime instance owns.
  A restore is (1) one *metadata* round trip fetching the current
  manifest, then (2) at most one *page* round trip —
  ``pull_missing(digests)`` — returning a single buffer holding only the
  pages this host lacks. The buffer is sliced into the PageStore by
  memoryview (no per-page copies), so restore cost is proportional to the
  number of *missing* pages: a host already holding an earlier version of
  the function ships only the delta, and a fully-resident host ships zero
  pages in exactly the one metadata round trip.

Bytes-shipped, pages-shipped, dedup-hit and round-trip counters land in
the cluster metrics registry (``snapshot.*`` / ``pagestore.*`` series);
pulls are traced as ``snapshot.pull`` spans.
"""

from __future__ import annotations

import threading

from repro.telemetry import MetricsRegistry, span
from repro.wasm.memory import ZERO_DIGEST, ZERO_PAGE
from repro.wasm.types import PAGE_SIZE

from .faaslet import FunctionDefinition
from .snapshot import ProtoFaaslet, SnapshotManifest, _unique_payload


class PageStore:
    """A host's content-addressed, reference-counted page store.

    Pages are keyed by digest and held as memoryviews — typically slices
    over pull buffers or aliases of frozen capture pages — never copied on
    the way in or out. Reference counts are per *snapshot retain*: each
    materialised snapshot version retains its unique payload digests once,
    and releasing the last retain evicts the page.
    """

    def __init__(self, host: str = "", metrics: MetricsRegistry | None = None):
        self.host = host
        # `is None`, not truthiness: an empty registry has len() == 0.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._pages: dict[str, memoryview] = {}
        self._refs: dict[str, int] = {}
        self._lock = threading.Lock()
        self._dedup_hits = metrics.counter("pagestore.dedup_hits", host=host)
        self._stored = metrics.counter("pagestore.pages_stored", host=host)
        self._evicted = metrics.counter("pagestore.pages_evicted", host=host)

    # ------------------------------------------------------------------
    # Residency queries
    # ------------------------------------------------------------------
    def contains(self, digest: str) -> bool:
        if digest == ZERO_DIGEST:
            return True
        with self._lock:
            return digest in self._pages

    def missing(self, digests) -> list[str]:
        """The unique non-zero digests of ``digests`` not resident here —
        exactly what a delta pull must ship."""
        payload = _unique_payload(digests)
        with self._lock:
            return [d for d in payload if d not in self._pages]

    def coverage(self, digests) -> float:
        """Fraction of the unique payload pages already resident (1.0 for
        an all-zero or empty snapshot: nothing needs shipping)."""
        payload = _unique_payload(digests)
        if not payload:
            return 1.0
        with self._lock:
            resident = sum(1 for d in payload if d in self._pages)
        return resident / len(payload)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def insert(self, digest: str, view: memoryview) -> bool:
        """Store one page; returns False (a dedup hit) if already present."""
        if digest == ZERO_DIGEST:
            return False
        with self._lock:
            if digest in self._pages:
                self._dedup_hits.inc()
                return False
            self._pages[digest] = view
        self._stored.inc()
        return True

    def insert_buffer(self, digests: list[str], buffer) -> int:
        """Slice one pull buffer (``len(digests) * PAGE_SIZE`` bytes) into
        the store by memoryview — the single-buffer landing zone of the
        delta-pull protocol. Returns the number of pages newly stored."""
        view = memoryview(buffer)
        if len(view) != len(digests) * PAGE_SIZE:
            raise ValueError(
                f"pull buffer holds {len(view)} bytes, "
                f"expected {len(digests)} pages"
            )
        added = 0
        for i, digest in enumerate(digests):
            if self.insert(digest, view[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]):
                added += 1
        return added

    # ------------------------------------------------------------------
    # Refcount lifecycle
    # ------------------------------------------------------------------
    def retain(self, digests) -> None:
        """One snapshot now references these pages (unique payload only)."""
        with self._lock:
            for digest in _unique_payload(digests):
                self._refs[digest] = self._refs.get(digest, 0) + 1

    def release(self, digests) -> int:
        """Drop one snapshot's reference; evicts pages that hit zero refs.
        Returns the number of pages evicted."""
        evicted = 0
        with self._lock:
            for digest in _unique_payload(digests):
                refs = self._refs.get(digest, 0) - 1
                if refs > 0:
                    self._refs[digest] = refs
                else:
                    self._refs.pop(digest, None)
                    if self._pages.pop(digest, None) is not None:
                        evicted += 1
        if evicted:
            self._evicted.inc(evicted)
        return evicted

    def refcount(self, digest: str) -> int:
        with self._lock:
            return self._refs.get(digest, 0)

    def clear(self) -> None:
        """Drop everything (host restart: page cache dies with the host)."""
        with self._lock:
            self._pages.clear()
            self._refs.clear()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def view(self, digest: str) -> memoryview:
        if digest == ZERO_DIGEST:
            return ZERO_PAGE
        with self._lock:
            page = self._pages.get(digest)
        if page is None:
            raise KeyError(f"page {digest} not resident on {self.host!r}")
        return page

    def pages_for(self, digests) -> list[memoryview]:
        """The ordered page views for a manifest's digest list."""
        return [self.view(d) for d in digests]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        with self._lock:
            return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        return self.resident_pages * PAGE_SIZE

    def stats(self) -> dict:
        with self._lock:
            resident = len(self._pages)
        return {
            "resident_pages": resident,
            "resident_bytes": resident * PAGE_SIZE,
            "pages_stored": self._stored.value,
            "pages_evicted": self._evicted.value,
            "dedup_hits": self._dedup_hits.value,
        }


class SnapshotRepository:
    """The cluster-side snapshot home (upload service, §5.2).

    Holds the authoritative :class:`PageStore` and the current manifest of
    every published function, with the definition it was captured from.
    Serves the two-step pull protocol: :meth:`published` (metadata) and
    :meth:`pull_missing` (one batched page round trip).
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.store = PageStore(host="_repository", metrics=metrics)
        self._published: dict[str, tuple[SnapshotManifest, FunctionDefinition]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def publish(self, name: str, proto: ProtoFaaslet) -> SnapshotManifest:
        """Publish ``proto`` as the next version of ``name``.

        Pages are ingested content-addressed (shared with every other
        snapshot that has identical content — including the previous
        version of this same function); the previous version's exclusive
        pages are released once the new manifest is in place.
        """
        digests = proto.page_digests
        with self._lock:
            previous = self._published.get(name)
            version = previous[0].version + 1 if previous is not None else 1
            manifest = proto.manifest(version)
        for digest, page in zip(digests, proto.frozen_pages):
            self.store.insert(digest, page)
        self.store.retain(digests)
        with self._lock:
            self._published[name] = (manifest, proto.definition)
        if previous is not None:
            self.store.release(previous[0].page_digests)
        proto.version = version
        return manifest

    # ------------------------------------------------------------------
    # The pull protocol (each method = one round trip)
    # ------------------------------------------------------------------
    def published(self, name: str) -> tuple[SnapshotManifest, FunctionDefinition]:
        """Metadata round trip: the current manifest and the definition it
        was captured from, so no host pairs one upload's code with another
        upload's pages. Raises ``KeyError`` for a function never published."""
        with self._lock:
            return self._published[name]

    def pull_missing(self, digests) -> tuple[list[str], bytearray]:
        """Page round trip: one buffer holding every requested page.

        Returns ``(order, buffer)`` where ``buffer`` is the requested
        pages back to back in ``order``. The caller slices the buffer into
        its PageStore by memoryview and must treat it as immutable."""
        order = [d for d in _unique_payload(digests) if self.store.contains(d)]
        buffer = bytearray(len(order) * PAGE_SIZE)
        view = memoryview(buffer)
        for i, digest in enumerate(order):
            view[i * PAGE_SIZE : (i + 1) * PAGE_SIZE] = self.store.view(digest)
        return order, buffer

    # ------------------------------------------------------------------
    def functions(self) -> list[str]:
        with self._lock:
            return sorted(self._published)

    def stats(self) -> dict:
        out = self.store.stats()
        out["functions"] = len(self._published)
        return out


class HostSnapshotCache:
    """One host's snapshot client: PageStore + delta-pull + proto cache.

    ``get_proto`` is the cold-start path: it fetches the current manifest
    (one metadata round trip), pulls only the pages the host's PageStore
    is missing (at most one page round trip), and materialises a
    Proto-Faaslet from the manifest's own definition, whose frozen pages
    alias the store. Repeat restores of an unchanged version (one version,
    one publish, one definition) are served from the in-memory proto cache
    with no page round trip; a version bump re-pulls only the delta.
    """

    def __init__(
        self,
        host: str,
        repository: SnapshotRepository,
        metrics: MetricsRegistry | None = None,
        on_residency=None,
    ):
        self.host = host
        self.repository = repository
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics = metrics
        self.store = PageStore(host=host, metrics=metrics)
        self._round_trips = metrics.counter("snapshot.round_trips", host=host)
        self._bytes_shipped = metrics.counter("snapshot.bytes_shipped", host=host)
        self._pages_shipped = metrics.counter("snapshot.pages_shipped", host=host)
        self._dedup_hits = metrics.counter("snapshot.dedup_hits", host=host)
        #: ``on_residency(function, host, coverage)`` — residency
        #: advertisement hook (the scheduler's locality signal).
        self._on_residency = on_residency
        self._protos: dict[str, ProtoFaaslet] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def get_proto(self, name: str) -> ProtoFaaslet:
        """The restore entry point for function ``name`` on this host.
        Raises ``KeyError`` when ``name`` has no published Proto-Faaslet."""
        advertise = False
        with self._lock:
            cached = self._protos.get(name)
            with span("snapshot.pull", function=name, host=self.host) as sp:
                manifest, definition = self.repository.published(name)
                self._round_trips.inc()
                if cached is not None and cached.version == manifest.version:
                    sp.set_attr("outcome", "cached")
                    return cached
                payload = manifest.payload_digests()
                missing = self.store.missing(payload)
                self._dedup_hits.inc(len(payload) - len(missing))
                sp.set_attr("payload_pages", len(payload))
                sp.set_attr("missing_pages", len(missing))
                if missing:
                    order, buffer = self.repository.pull_missing(missing)
                    self._round_trips.inc()
                    self._bytes_shipped.inc(len(buffer))
                    self._pages_shipped.inc(len(order))
                    self.store.insert_buffer(order, buffer)
                    sp.set_attr("bytes_shipped", len(buffer))
                self.store.retain(manifest.page_digests)
                if cached is not None:
                    self.store.release(cached.page_digests)
                proto = ProtoFaaslet.from_manifest(
                    definition,
                    manifest,
                    self.store.pages_for(manifest.page_digests),
                    metrics=self._metrics,
                )
                self._protos[name] = proto
                sp.set_attr("outcome", "pulled")
                advertise = True
        if advertise and self._on_residency is not None:
            self._on_residency(name, self.host, self.store.coverage(
                manifest.page_digests
            ))
        return proto

    def drop(self, name: str) -> None:
        """Forget one function's materialised snapshot (releases pages)."""
        with self._lock:
            proto = self._protos.pop(name, None)
            if proto is not None:
                self.store.release(proto.page_digests)

    def clear(self) -> None:
        """Host restart: the page cache and proto cache died with it."""
        with self._lock:
            self._protos.clear()
            self.store.clear()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = self.store.stats()
        with self._lock:
            out["snapshots_cached"] = len(self._protos)
        out["round_trips"] = self._round_trips.value
        out["bytes_shipped"] = self._bytes_shipped.value
        out["pages_shipped"] = self._pages_shipped.value
        out["pull_dedup_hits"] = self._dedup_hits.value
        return out
