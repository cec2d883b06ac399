"""The local state tier: per-host replicas in Faaslet shared memory (§4.2).

Each host runs one :class:`LocalTier`. A replica of a state value is a
:class:`~repro.faaslet.sharing.SharedRegion` that co-located Faaslets map
directly into their linear memories — there is no separate storage service
(unlike SAND or Cloudburst, as the paper notes). Chunked values (Fig. 4,
value ``C``) track which byte ranges have been pulled so only the required
subsets are replicated.

**Delta sync.** Every replica additionally tracks the byte ranges written
since the last push in a *dirty* :class:`_IntervalSet`, fed by three
sources: host-side ``write_local`` calls, guest stores into mapped shared
pages (page-granular, via the write-protect fault hook in
:mod:`repro.wasm.memory`), and DDO write paths. ``push`` flushes only the
dirty spans — batched into one round trip — instead of shipping the whole
value, the Python analogue of Faasm's dirty-page flush. Pulls likewise
batch all missing gaps into a single ranged round trip and copy straight
into the region's backing through a ``memoryview`` (no intermediate
``bytes``), and a *forced* pull of a fully-present replica is a delta too:
it asks the store for the spans written since the version the replica was
last synced at (``Replica.gver``, DESIGN.md §10).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.faaslet.sharing import SharedRegion
from repro.telemetry import span

from .kv import StateClient
from .rwlock import RWLock


_INF = float("inf")


class _IntervalSet:
    """A merged set of [start, end) byte intervals, kept sorted."""

    def __init__(self) -> None:
        self._spans: list[tuple[int, int]] = []

    def add(self, start: int, end: int) -> None:
        if end <= start:
            return
        spans = self._spans
        # [lo, hi): the spans that overlap or touch [start, end).
        lo = bisect_left(spans, (start,))
        if lo and spans[lo - 1][1] >= start:
            lo -= 1
        hi = bisect_right(spans, (end, _INF), lo)
        if hi - lo == 1 and spans[lo][0] <= start and end <= spans[lo][1]:
            return  # already covered
        if hi > lo:
            start, end = min(start, spans[lo][0]), max(end, spans[hi - 1][1])
        spans[lo:hi] = [(start, end)]

    def remove(self, start: int, end: int) -> None:
        """Subtract [start, end), splitting spans that straddle it."""
        if end <= start:
            return
        out: list[tuple[int, int]] = []
        for s, e in self._spans:
            if e <= start or s >= end:
                out.append((s, e))
                continue
            if s < start:
                out.append((s, start))
            if e > end:
                out.append((end, e))
        self._spans = out

    def covers(self, start: int, end: int) -> bool:
        if end <= start:
            return True
        at = bisect_right(self._spans, (start, _INF)) - 1
        return at >= 0 and self._spans[at][1] >= end

    def missing(self, start: int, end: int) -> list[tuple[int, int]]:
        """Sub-ranges of [start, end) not yet present."""
        gaps: list[tuple[int, int]] = []
        cursor = start
        for s, e in self._spans:
            if e <= cursor:
                continue
            if s >= end:
                break
            if s > cursor:
                gaps.append((cursor, min(s, end)))
            cursor = max(cursor, e)
            if cursor >= end:
                break
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def intersect(self, start: int, end: int) -> list[tuple[int, int]]:
        """The parts of the set that fall inside [start, end)."""
        out: list[tuple[int, int]] = []
        for s, e in self._spans:
            lo, hi = max(s, start), min(e, end)
            if lo < hi:
                out.append((lo, hi))
        return out

    def total(self) -> int:
        """Bytes covered by the set."""
        return sum(e - s for s, e in self._spans)

    def clear(self) -> None:
        self._spans = []

    @property
    def spans(self) -> list[tuple[int, int]]:
        return list(self._spans)


@dataclass
class Replica:
    """A local-tier replica of one state value.

    ``value_size`` is the value's logical length; the backing region may be
    larger (page-aligned, or left over from a previously larger value).
    ``present`` tracks which byte ranges have been materialised locally
    (pulled or written); ``dirty`` tracks ranges written since the last
    push, so flushes move only modified bytes. ``synced_size`` is the
    logical size the global tier was last known to hold — when it differs
    from ``value_size`` the next push also carries the size change.
    """

    key: str
    region: SharedRegion
    lock: RWLock = field(default_factory=RWLock)
    present: _IntervalSet = field(default_factory=_IntervalSet)
    dirty: _IntervalSet = field(default_factory=_IntervalSet)
    value_size: int = 0
    synced_size: int | None = None
    #: Global write version this replica is *synced at*: every byte of a
    #: fully-present replica that is not dirty equals the global byte,
    #: unless a write newer than ``gver`` covers it — which is exactly
    #: what a forced pull asks the store for. ``None`` means unknown.
    gver: int | None = None
    #: Guards ``dirty``: marks arrive from guest write faults on executor
    #: threads that do not hold the replica lock.
    _dirty_mutex: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        if self.value_size == 0:
            self.value_size = self.region.size
        # Host writes through region.write() and guest stores into mapped
        # pages both land here, keeping the dirty set exact without the
        # writer knowing about replicas.
        self.region.add_write_listener(self.mark_dirty)

    @property
    def size(self) -> int:
        return self.value_size

    # ------------------------------------------------------------------
    def mark_dirty(self, start: int, end: int) -> None:
        """Record that [start, end) was modified locally (thread-safe)."""
        with self._dirty_mutex:
            self.dirty.add(start, end)

    def take_dirty(self, limit: int) -> list[tuple[int, int]]:
        """Atomically drain the dirty set, clipped to [0, limit).

        Returns the spans to flush and clears the set, then re-arms
        page-granular guest tracking; writes racing with the drain re-fault
        and land in the next flush (HOGWILD-tolerated, §4.1).
        """
        with self._dirty_mutex:
            spans = self.dirty.intersect(0, limit)
            self.dirty.clear()
        self.region.reprotect_mappings()
        return spans

    def restore_dirty(self, spans: list[tuple[int, int]]) -> None:
        """Put back spans a failed operation drained with :meth:`take_dirty`."""
        with self._dirty_mutex:
            for start, end in spans:
                self.dirty.add(start, end)

    def discard_dirty(self, start: int, end: int) -> None:
        """Forget dirty marks inside [start, end) (a forced pull overwrote
        the local bytes, so they now match the global tier)."""
        with self._dirty_mutex:
            self.dirty.remove(start, end)


class LocalTier:
    """Shared in-memory state replicas for one host."""

    def __init__(self, host: str, client: StateClient):
        self.host = host
        self.client = client
        self._replicas: dict[str, Replica] = {}
        self._mutex = threading.Lock()
        #: Guards the pull counters below.
        self._stats_mutex = threading.Lock()
        #: Forced pulls served as a delta, the bytes they did not move,
        #: and those that needed the whole value, by cause.
        self.delta_pulls = 0
        self.bytes_saved = 0
        self.full_fallbacks = dict.fromkeys(
            ("unknown-version", "partial", "overflow", "resized"), 0
        )

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------
    def replica(self, key: str, size: int | None = None) -> Replica:
        """Get or create the replica for ``key`` (sized from the global tier
        when ``size`` is not given)."""
        with self._mutex:
            rep = self._replicas.get(key)
            if rep is not None:
                if size is not None and size > rep.value_size:
                    if size > rep.region.size:
                        rep.region.resize(size)
                    # The region may hold stale bytes beyond the logical
                    # end (left by a shrink); a grown value must read as
                    # zeros there. Written through the view so the zeros
                    # are not themselves marked dirty — the global tier
                    # zero-fills the same gap when the value extends.
                    gap = size - rep.value_size
                    rep.region.view(rep.value_size, gap)[:] = bytes(gap)
                    rep.value_size = size
                    # Logical size changed without a global round trip:
                    # the replica can no longer claim version equality.
                    rep.gver = None
                return rep
            synced: int | None = None
            if size is None:
                size = self.client.size(key)  # raises StateKeyError if absent
                synced = size  # sized from the global tier at this instant
            region = SharedRegion(f"{self.host}/{key}", size)
            rep = self._replicas[key] = Replica(
                key, region, value_size=size, synced_size=synced
            )
            return rep

    def has_replica(self, key: str) -> bool:
        with self._mutex:
            return key in self._replicas

    def drop(self, key: str) -> None:
        with self._mutex:
            self._replicas.pop(key, None)

    def keys(self) -> list[str]:
        with self._mutex:
            return sorted(self._replicas)

    def memory_bytes(self) -> int:
        """Bytes of local-tier shared memory on this host (for billable
        memory accounting in Fig. 6c)."""
        with self._mutex:
            return sum(r.region.n_pages * 64 * 1024 for r in self._replicas.values())

    # ------------------------------------------------------------------
    # Pull / push (local <-> global movement, §4.1)
    # ------------------------------------------------------------------
    def pull(self, key: str, force: bool = False) -> Replica:
        """Ensure the full value is present locally; fetch it if not.

        After a forced pull the replica is byte-identical to the global
        tier, unflushed local writes included. A fully-present replica
        synced at a known version gets there by a *delta pull*: one round
        trip that copies only the spans written since that version (and
        the replica's own dirty spans) straight into the shared region.
        Every other case — and a delta the store can no longer answer —
        is the whole-value fetch.
        """
        rep = self.replica(key)
        with rep.lock.write_locked():
            if not force and rep.present.covers(0, rep.size):
                return rep
            # Drained first so a write racing the copy re-marks itself and
            # survives as a local write; put back if the store is down.
            mine = rep.take_dirty(rep.region.size)
            try:
                with span("state.pull", key=key, host=self.host) as sp:
                    if not (force and self._delta_pull(rep, mine, sp)):
                        self._full_pull(rep, sp)
            except BaseException:
                rep.restore_dirty(mine)
                raise
        return rep

    def _delta_pull(self, rep: Replica, mine, sp) -> bool:
        """Bring ``rep`` up to date with the spans written since it last
        synced plus ``mine``, its drained dirty spans (replica write lock
        held). False, with the cause counted, when only the whole value
        will do."""
        size = rep.value_size
        cause = None
        if rep.gver is None:
            cause = "unknown-version"
        elif not rep.present.covers(0, size):
            cause = "partial"
        else:
            spans, version, gsize = self.client.pull_since(
                rep.key, rep.gver, rep.region.view(0, size), mine
            )
            if spans is None:
                cause = "overflow" if gsize == size else "resized"
        if cause is not None:
            with self._stats_mutex:
                self.full_fallbacks[cause] += 1
            return False
        moved = sum(e - s for s, e in spans)
        with self._stats_mutex:
            self.delta_pulls += 1
            self.bytes_saved += size - moved
        rep.synced_size = size
        rep.gver = version
        sp.set_attr("bytes", moved)
        sp.set_attr("round_trips", 1)
        sp.set_attr("ranges", spans)
        return True

    def _full_pull(self, rep: Replica, sp) -> None:
        """Fetch the whole value into the shared region through a view:
        one copy, global backing → region (replica write lock held)."""
        size = self.client.size(rep.key)  # raises StateKeyError if absent
        if size > rep.region.size:
            rep.region.resize(size)
        version: int | None = None
        if size:
            _, version, vsize = self.client.pull_ranges_into_versioned(
                rep.key, [(0, rep.region.view(0, size))]
            )
            if vsize != size:
                # Resized between the metadata trip and the data trip: the
                # bytes are real but were read at no one version.
                version = None
        rep.value_size = size
        rep.present.clear()
        rep.present.add(0, size)
        rep.synced_size = size
        rep.gver = version
        sp.set_attr("bytes", size)
        sp.set_attr("round_trips", 2 if size else 1)
        sp.set_attr("ranges", [(0, size)])

    def pull_chunk(self, key: str, offset: int, length: int, force: bool = False) -> Replica:
        """Ensure ``[offset, offset+length)`` is present locally (state
        chunks, Fig. 4). All missing gaps move in ONE batched round trip,
        copied straight into the region."""
        rep = self.replica(key)
        if offset + length > rep.value_size:
            # The replica may have been created by a local write narrower
            # than the global value: grow the local view to cover the
            # requested chunk, then pull. A request past the *global* end
            # still fails the store's range check, as it always did.
            rep = self.replica(key, size=offset + length)
        if not force:
            with rep.lock.read_locked():
                if rep.present.covers(offset, offset + length):
                    return rep
        with rep.lock.write_locked():
            if force:
                gaps = [(offset, offset + length)]
            else:
                gaps = rep.present.missing(offset, offset + length)
            if gaps:
                with span("state.pull", key=key, host=self.host, chunk=True) as sp:
                    self.client.pull_ranges_into_versioned(
                        key, [(s, rep.region.view(s, e - s)) for s, e in gaps]
                    )
                    # Newer bytes in a replica synced at an older version
                    # are bytes the write log covers: ``gver`` stands.
                    for s, e in gaps:
                        rep.present.add(s, e)
                        rep.discard_dirty(s, e)
                    sp.set_attr("bytes", sum(e - s for s, e in gaps))
                    sp.set_attr("round_trips", 1)
                    sp.set_attr("ranges", list(gaps))
        return rep

    def push(self, key: str) -> None:
        """Flush the replica's dirty byte ranges to the global tier.

        This is the delta push: only ranges actually written since the last
        sync travel (batched into one round trip), never the whole value —
        and never bytes that were neither pulled nor written, so a partial
        replica cannot clobber the authoritative value with stale zeros. A
        local size change (shrink/grow) is carried by the same trip.
        """
        rep = self.replica(key)
        with rep.lock.write_locked():
            spans = rep.take_dirty(rep.value_size)
            if not spans and rep.synced_size == rep.value_size:
                return
            with span("state.push", key=key, host=self.host) as sp:
                parts = [(s, rep.region.view(s, e - s)) for s, e in spans]
                # The trip always carries the local logical size: a push makes
                # the global value's length match the replica's, exactly as a
                # full-value push did, so shrinks and grows propagate with the
                # same round trip (no extra RPC, no extra payload bytes).
                new_version = self.client.push_ranges_versioned(
                    key, parts, truncate_to=rep.value_size
                )
                if not rep.present.covers(0, rep.value_size):
                    for s, e in spans:
                        rep.present.add(s, e)
                rep.synced_size = rep.value_size
                self._note_push(rep, new_version)
                sp.set_attr("bytes", sum(e - s for s, e in spans))
                sp.set_attr("round_trips", 1)
                sp.set_attr("ranges", list(spans))

    def push_chunk(self, key: str, offset: int, length: int) -> None:
        """Push one explicit byte range (Tab. 2 ``push_state_offset``)."""
        rep = self.replica(key)
        with rep.lock.write_locked():
            with span("state.push", key=key, host=self.host, chunk=True) as sp:
                new_version = self.client.push_ranges_versioned(
                    key, [(offset, rep.region.view(offset, length))]
                )
                rep.present.add(offset, offset + length)
                rep.discard_dirty(offset, offset + length)
                self._note_push(rep, new_version)
                sp.set_attr("bytes", length)
                sp.set_attr("round_trips", 1)
                sp.set_attr("ranges", [(offset, offset + length)])

    # ------------------------------------------------------------------
    # Local reads/writes (no global traffic)
    # ------------------------------------------------------------------
    def read_local(self, key: str, offset: int = 0, length: int | None = None) -> bytes:
        rep = self.replica(key)
        with rep.lock.read_locked():
            return rep.region.read(offset, length)

    def write_local(self, key: str, data: bytes, offset: int = 0, size: int | None = None) -> Replica:
        """Write to the local replica only; creates it if needed.

        With an explicit ``size`` the value's logical length becomes exactly
        ``size`` (a full replacement may *shrink* the value); without one the
        value grows as needed. The written range is marked dirty (via the
        region's write listener), so the next push flushes exactly it.
        """
        rep = self.replica(key, size=size if size is not None else offset + len(data))
        with rep.lock.write_locked():
            self._prepare_write(rep, offset, len(data), size)
            rep.region.write(data, offset)
            rep.present.add(offset, offset + len(data))
        return rep

    def write_local_from_memory(
        self, key: str, memory, addr: int, length: int,
        offset: int = 0, size: int | None = None,
    ) -> Replica:
        """Like :meth:`write_local`, but the data comes straight out of a
        guest :class:`~repro.wasm.memory.LinearMemory`: pages copy directly
        into the region's view with no intermediate ``bytes`` (the
        zero-copy ``set_state`` syscall path)."""
        rep = self.replica(key, size=size if size is not None else offset + length)
        with rep.lock.write_locked():
            self._prepare_write(rep, offset, length, size)
            memory.read_into(addr, rep.region.view(offset, length))
            rep.mark_dirty(offset, offset + length)
            rep.present.add(offset, offset + length)
        return rep

    @staticmethod
    def _note_push(rep: Replica, new_version: int) -> None:
        """Keep ``gver`` after a push (replica write lock held). A push
        straight onto the synced-at version advances it: the global value
        is that version with our spans applied, which is what the replica
        holds. After any other push it stays, so the next forced pull
        re-fetches the interleaved writers' spans (and ours)."""
        if rep.gver is not None and new_version == rep.gver + 1:
            rep.gver = new_version

    def pull_stats(self) -> dict:
        """This host's forced-pull counters (``repro metrics`` / ``report``)."""
        with self._stats_mutex:
            return {
                "delta_pulls": self.delta_pulls,
                "full_fallbacks": dict(self.full_fallbacks),
                "bytes_saved": self.bytes_saved,
            }

    @staticmethod
    def _prepare_write(rep: Replica, offset: int, length: int, size: int | None) -> None:
        """Shared sizing/zero-fill bookkeeping before a local write (the
        replica write lock must be held)."""
        if offset + length > rep.region.size:
            rep.region.resize(offset + length)
        if offset > rep.value_size:
            # Writing past the logical end: the gap reads as zeros.
            rep.region.write(b"\x00" * (offset - rep.value_size), rep.value_size)
            rep.present.add(rep.value_size, offset)
        if size is not None:
            new_size = max(size, offset + length)
        else:
            new_size = max(rep.value_size, offset + length)
        if new_size < rep.value_size:
            # Shrinking truncates: stale tail bytes must never resurface
            # if the value later regrows.
            rep.region.write(b"\x00" * (rep.value_size - new_size), new_size)
        rep.value_size = new_size
