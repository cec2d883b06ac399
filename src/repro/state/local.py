"""The local state tier: per-host replicas in Faaslet shared memory (§4.2).

Each host runs one :class:`LocalTier`. A replica of a state value is a
:class:`~repro.faaslet.sharing.SharedRegion` that co-located Faaslets map
directly into their linear memories — there is no separate storage service
(unlike SAND or Cloudburst, as the paper notes). Chunked values (Fig. 4,
value ``C``) track which byte ranges have been pulled so only the required
subsets are replicated.

**Delta sync.** A replica keeps the exact byte spans written since the
last push. A host write (``write_local``), a guest store into a mapped page
(the first after each push, via the write-protect fault hook in
:mod:`repro.wasm.memory`) and a DDO write path each *append* one ``(start,
end)`` mark to a log; a drain sorts and merges the log into the *dirty*
:class:`_IntervalSet` once, and ``push`` ships the merged spans in one
round trip — the Python analogue of Faasm's dirty-page flush. Marks are
byte spans, not a page bitmap: a page is 64 KiB, and a few unaligned 4 KiB
writes would ship as whole pages. A read or write inside the present value
is one replica lookup and one replica lock. Pulls batch all missing gaps
into one ranged round trip straight into the region, and a *forced* pull
of bytes already present is a delta too: it asks the store for the spans
written inside the range since the version the range was last synced at
(``Replica.synced``, DESIGN.md §10).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.faaslet.sharing import SharedRegion
from repro.telemetry import span

from .kv import StateClient, _merge
from .rwlock import RWLock


_INF = float("inf")


class _RangeMap:
    """``[start, end) -> value`` over byte offsets: sorted, disjoint spans,
    touching spans that carry one value kept as one span."""

    def __init__(self) -> None:
        self._spans: list[tuple] = []

    def set(self, start: int, end: int, value=True, drop: bool = False) -> None:
        """Make [start, end) carry ``value`` (with ``drop``: nothing),
        splitting the spans that straddle an edge."""
        if end <= start:
            return
        spans = self._spans
        # [lo, hi): the spans that overlap or touch [start, end). Only the
        # first can reach before it and only the last beyond it; an edge
        # span that carries ``value`` is absorbed, any other one is cut.
        lo = bisect_left(spans, (start,))
        if lo and spans[lo - 1][1] >= start:
            lo -= 1
        hi = bisect_right(spans, (end, _INF), lo)
        left = right = ()
        if lo < hi:
            first, _, v = spans[lo]
            if first < start:
                if v == value and not drop:
                    start = first
                else:
                    left = ((first, start, v),)
            _, last, v = spans[hi - 1]
            if last > end:
                if v == value and not drop:
                    end = last
                else:
                    right = ((end, last, v),)
        spans[lo:hi] = (*left, *right) if drop else (*left, (start, end, value), *right)

    def scan(self, start: int, end: int) -> tuple[list[tuple[int, int]], list]:
        """``(gaps, values)`` of [start, end): the sub-ranges no span
        covers, and the value of every span that overlaps it."""
        gaps: list[tuple[int, int]] = []
        values = []
        spans, cursor = self._spans, start
        for at in range(max(bisect_right(spans, (start, _INF)) - 1, 0), len(spans)):
            s, e, v = spans[at]
            if s >= end or cursor >= end:
                break
            if e <= cursor:
                continue
            if s > cursor:
                gaps.append((cursor, s))
            values.append(v)
            cursor = e
        if cursor < end:
            gaps.append((cursor, end))
        return gaps, values

    def covers(self, start: int, end: int) -> bool:
        spans = self._spans
        at = bisect_right(spans, (start, _INF)) - 1
        if at >= 0 and spans[at][1] >= end:
            return True  # one span does
        return not self.scan(start, end)[0]

    def missing(self, start: int, end: int) -> list[tuple[int, int]]:
        """Sub-ranges of [start, end) not yet present."""
        return self.scan(start, end)[0]


class _IntervalSet(_RangeMap):
    """A merged set of [start, end) byte intervals: the map with one value."""

    add = _RangeMap.set

    def remove(self, start: int, end: int) -> None:
        """Subtract [start, end), splitting spans that straddle it."""
        self.set(start, end, drop=True)

    def intersect(self, start: int, end: int) -> list[tuple[int, int]]:
        """The parts of the set that fall inside [start, end)."""
        return [
            (lo, hi) for s, e, _ in self._spans
            if (lo := max(s, start)) < (hi := min(e, end))
        ]

    def total(self) -> int:
        """Bytes covered by the set."""
        return sum(e - s for s, e, _ in self._spans)

    @property
    def spans(self) -> list[tuple[int, int]]:
        return [(s, e) for s, e, _ in self._spans]


@dataclass
class Replica:
    """A local-tier replica of one state value.

    ``value_size`` is the value's logical length; the backing region may be
    larger (page-aligned, or left over from a previously larger value).
    ``synced`` maps every byte range materialised locally (pulled or
    written) to the global write version it is *synced at*; ``dirty`` holds
    the spans written since the last push. ``synced_size`` is the logical
    size the global tier was last known to hold — when it differs from
    ``value_size`` the next push also carries the size change.
    """

    key: str
    region: SharedRegion
    lock: RWLock = field(default_factory=RWLock)
    #: ``[start, end) -> version`` the range is synced at: every byte of it
    #: that is not dirty equals the global byte, unless a write newer than
    #: the version covers it — exactly what a forced pull of the range asks
    #: the store for. ``None``: present, but synced at no known version (a
    #: local write, a zero fill). A byte no range covers is not present.
    synced: _RangeMap = field(default_factory=_RangeMap)
    value_size: int = 0
    synced_size: int | None = None
    #: The dirty set as of the last fold, and the ``(start, end)`` marks
    #: logged since, in arrival order. Both are guarded by ``_dirty_mutex``:
    #: marks arrive from guest write faults on executor threads that do not
    #: hold the replica lock.
    _dirty: _IntervalSet = field(default_factory=_IntervalSet, repr=False)
    _marks: list = field(default_factory=list, repr=False)
    _dirty_mutex: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if self.value_size == 0:
            self.value_size = self.region.size
        # Writes through region.write() and guest stores into mapped pages
        # mark here without the writer knowing about replicas.
        self.region.add_write_listener(self.mark_dirty)

    @property
    def size(self) -> int:
        return self.value_size

    # ------------------------------------------------------------------
    def mark_dirty(self, start: int, end: int) -> None:
        """Record that [start, end) was modified locally (thread-safe): one
        append to the mark log, which the next drain folds in."""
        if start < end:
            self._dirty_mutex.acquire()  # by hand: a ``with`` costs twice as much
            self._marks.append((start, end))
            self._dirty_mutex.release()

    @property
    def dirty(self) -> _IntervalSet:
        """The dirty set, the mark log folded in."""
        with self._dirty_mutex:
            return self._fold()

    def _fold(self) -> _IntervalSet:
        """Sort and merge the mark log into the dirty set, however many
        marks arrived, in one pass (``_dirty_mutex`` held)."""
        if self._marks:
            merged = _merge(self._marks + self._dirty.spans)
            self._dirty._spans = [(s, e, True) for s, e in merged]
            self._marks = []
        return self._dirty

    def take_dirty(self, start: int, end: int) -> list[tuple[int, int]]:
        """Atomically drain the dirty marks inside [start, end) for a transfer.

        Returns the drained spans clipped to the logical value (a mark past
        its end describes no byte of it), then re-arms page-granular guest
        tracking: a write racing the transfer re-faults, re-marks itself
        and lands in the next flush (HOGWILD-tolerated, §4.1) instead of
        being erased. A drain around every mark (each push's, when no ranged
        drain left marks behind) takes the merged log as it is.
        """
        limit = min(end, self.value_size)
        with self._dirty_mutex:
            spans = _merge(self._marks)
            if not self._dirty._spans and (
                not spans or start <= spans[0][0] and spans[-1][1] <= limit
            ):
                self._marks = []
            else:
                dirty = self._fold()
                spans = dirty.intersect(start, limit)
                dirty.remove(start, end)
        self.region.reprotect_mappings()
        return spans

    def restore_dirty(self, spans: list[tuple[int, int]]) -> None:
        """Put back spans a failed transfer drained with :meth:`take_dirty`."""
        with self._dirty_mutex:
            self._marks += spans

    def pushed(self, spans: list[tuple[int, int]], new_version: int) -> None:
        """A push of ``spans`` produced ``new_version`` (replica write lock
        held). The global value is its pre-image with our spans applied,
        so the spans are synced at it, and so is every range that was
        synced at ``new_version - 1`` (no two of those touch, so advancing
        them in place keeps the map coalesced). A range further behind
        stays there: its next forced pull re-fetches the interleaved
        writers' spans (and, harmlessly, ours)."""
        runs = self.synced._spans
        runs[:] = [
            (s, e, new_version if v == new_version - 1 else v) for s, e, v in runs
        ]
        # One range level with the push around all of it (a sole writer's
        # case): nothing more to record.
        if spans and self.synced.scan(spans[0][0], spans[-1][1]) != ([], [new_version]):
            for start, end in spans:
                self.synced.set(start, end, new_version)


class LocalTier:
    """Shared in-memory state replicas for one host."""

    def __init__(self, host: str, client: StateClient):
        self.host = host
        self.client = client
        self._replicas: dict[str, Replica] = {}
        self._mutex = threading.Lock()
        self._stats_mutex = threading.Lock()
        #: Forced pulls (whole-key and ranged) served as a delta, the bytes
        #: they did not move, and those shipped whole, by cause.
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
        when ``size`` is not given). A replica that exists and is big enough
        is one dict lookup: the tier mutex guards only create and grow."""
        rep = self._replicas.get(key)
        if rep is not None and (size is None or size <= rep.value_size):
            return rep
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

    def create(self, key: str, size: int) -> Replica:
        """The replica of a value that exists nowhere yet: ``size`` zeros,
        all present, synced at no version (a function creating state it
        will later push)."""
        rep = self.replica(key, size)
        with rep.lock.write_locked():
            self._prepare_write(rep, 0, size, None)
        return rep

    def has_replica(self, key: str) -> bool:
        return key in self._replicas  # one atomic lookup, like replica()'s

    def drop(self, key: str) -> None:
        with self._mutex:
            self._replicas.pop(key, None)

    def keys(self) -> list[str]:
        return sorted(self._replicas)  # copied in C: atomic under the GIL

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
        whose every range is synced at a known version gets there by a
        *delta pull*: one round trip that copies only the spans written
        since the oldest of those versions (and the replica's own dirty
        spans) straight into the shared region. Every other case — and a
        delta the store can no longer answer — is the whole-value fetch.
        """
        rep = self.replica(key)
        with rep.lock.write_locked():
            self._sync(rep, 0, rep.size, force, whole=True)
        return rep

    def pull_chunk(self, key: str, offset: int, length: int, force: bool = False) -> Replica:
        """Ensure ``[offset, offset+length)`` is present locally (state
        chunks, Fig. 4). All missing gaps move in ONE batched round trip,
        copied straight into the region; a forced pull of a present chunk
        is a delta pull of that range."""
        rep = self.replica(key)
        end = offset + length
        if end > rep.value_size:
            # The replica may have been created by a local write narrower
            # than the global value: grow the local view to cover the
            # requested chunk, then pull. A request past the *global* end
            # still fails the store's range check, as it always did.
            rep = self.replica(key, size=end)
        if not force:
            lock = rep.lock
            lock.acquire_read()
            try:
                if rep.synced.covers(offset, end):
                    return rep
            finally:
                lock.release_read()
        with rep.lock.write_locked():
            self._sync(rep, offset, end, force, whole=False)
        return rep

    def _sync(self, rep: Replica, start: int, end: int, force: bool, whole: bool) -> None:
        """The one pull routine (replica write lock held): bring
        ``[start, end)`` level with the global tier. Forced, that is a
        delta pull when the store can answer one and the range shipped
        whole otherwise; not forced, the gaps are shipped. ``whole`` is
        :meth:`pull`'s case: what ships is the value at its global size,
        one copy, global backing → region, like every range."""
        wanted = [(start, end)] if force else rep.synced.missing(start, end)
        if not wanted:
            return
        # Drained first so a write racing the copy re-marks itself and
        # survives as a local write; put back if the store is down.
        drain = [(0, rep.region.size)] if whole else wanted
        mine = [mark for s, e in drain for mark in rep.take_dirty(s, e)]
        try:
            with span("state.pull", key=rep.key, host=self.host, chunk=not whole) as sp:
                if force and self._delta_pull(rep, start, end, mine, sp):
                    return
                if whole:
                    size = self.client.size(rep.key)  # raises StateKeyError if absent
                    if size > rep.region.size:
                        rep.region.resize(size)
                    wanted = [(0, size)]
                moved, version, gsize = self.client.pull_ranges_into_versioned(
                    rep.key, [(s, rep.region.view(s, e - s)) for s, e in wanted]
                )
                if whole:
                    rep.value_size = rep.synced_size = size
                    rep.synced = _RangeMap()
                    if gsize != size:
                        # Resized between the metadata trip and the data
                        # trip: real bytes, read at no one version.
                        version = None
                for s, e in wanted:
                    rep.synced.set(s, e, version)
                sp.set_attr("bytes", moved)
                sp.set_attr("round_trips", 2 if whole else 1)
        except BaseException:
            rep.restore_dirty(mine)
            raise

    def _delta_pull(self, rep: Replica, start: int, end: int, mine, sp) -> bool:
        """Bring ``[start, end)`` up to date with the spans written since
        its oldest range last synced plus ``mine``, its drained dirty
        spans (replica write lock held). False, with the cause counted,
        when only the bytes themselves will do."""
        size = rep.value_size
        gaps, versions = rep.synced.scan(start, end)
        if gaps:
            cause = "partial"
        elif None in versions:
            cause = "unknown-version"
        else:
            moved, version, gsize = self.client.pull_since(
                rep.key, start, end - start, min(versions, default=0),
                rep.region.view(0, size), mine,
            )
            if moved is not None:
                with self._stats_mutex:
                    self.delta_pulls += 1
                    self.bytes_saved += end - start - moved
                rep.synced_size = size  # an answered delta proves the sizes agree
                rep.synced.set(start, end, version)
                sp.set_attr("bytes", moved)
                sp.set_attr("round_trips", 1)
                return True
            cause = "overflow" if gsize == size else "resized"
        with self._stats_mutex:
            self.full_fallbacks[cause] += 1
        return False

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
            spans = rep.take_dirty(0, rep.region.size)
            if spans or rep.synced_size != rep.value_size:
                # The trip always carries the logical size, so shrinks and
                # grows travel with it (no extra RPC, no extra payload).
                self._flush(rep, spans, spans, rep.value_size)
                rep.synced_size = rep.value_size

    def push_chunk(self, key: str, offset: int, length: int) -> None:
        """Push one explicit byte range (Tab. 2 ``push_state_offset``)."""
        rep = self.replica(key)
        end = offset + length
        rep.region.view(offset, length)  # IndexError outside the region
        with rep.lock.write_locked():
            drained = rep.take_dirty(offset, end)
            self._flush(rep, [(offset, end)], drained, None, chunk=True)

    def _flush(self, rep: Replica, spans, drained, truncate_to, **attrs) -> None:
        """One push round trip carrying ``spans`` (replica write lock held).
        Their dirty marks were ``drained`` before it, like any transfer's:
        a guest store racing the trip re-faults and stays dirty, and a trip
        that fails puts the marks back."""
        try:
            with span("state.push", key=rep.key, host=self.host, **attrs) as sp:
                buffer = rep.region.buffer  # the spans lie inside it
                moved, new_version = self.client.push_ranges_versioned(
                    rep.key, [(s, buffer[s:e]) for s, e in spans], truncate_to
                )
                rep.pushed(spans, new_version)
                sp.set_attr("bytes", moved)
                sp.set_attr("round_trips", 1)
        except BaseException:
            rep.restore_dirty(drained)
            raise

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
        value grows as needed. The written range is marked dirty, so the
        next push flushes exactly it.
        """
        return self._write(key, offset, offset + len(data), size, data)

    def write_local_from_memory(
        self, key: str, memory, addr: int, length: int,
        offset: int = 0, size: int | None = None,
    ) -> Replica:
        """Like :meth:`write_local`, but the data comes straight out of a
        guest :class:`~repro.wasm.memory.LinearMemory`: pages copy directly
        into the region with no intermediate ``bytes`` (the zero-copy
        ``set_state`` syscall path)."""
        return self._write(key, offset, offset + length, size, memory, addr)

    def _write(self, key: str, offset: int, end: int, size, source, addr=None) -> Replica:
        """The one local write: a replica lookup, its write lock, the copy
        of ``source`` (bytes, or with ``addr`` guest memory) and one mark."""
        rep = self.replica(key, size=end if size is None else size)
        lock = rep.lock
        lock.acquire_write()
        try:
            self._prepare_write(rep, offset, end, size)
            if addr is None:
                rep.region.buffer[offset:end] = source
            else:
                source.read_into(addr, rep.region.buffer[offset:end])
            rep.mark_dirty(offset, end)
        finally:
            lock.release_write()
        return rep

    def pull_stats(self) -> dict:
        """This host's forced-pull counters (``repro metrics``)."""
        with self._stats_mutex:
            return {
                "delta_pulls": self.delta_pulls,
                "full_fallbacks": dict(self.full_fallbacks),
                "bytes_saved": self.bytes_saved,
            }

    @staticmethod
    def _prepare_write(rep: Replica, offset: int, end: int, size: int | None) -> None:
        """Sizing, zero fill and presence bookkeeping before a local write of
        [offset, end) (replica write lock held). A write inside the present
        value that keeps its size needs none of it."""
        if (
            (size is None or size == rep.value_size)
            and 0 <= offset <= end <= rep.value_size
            and rep.synced.covers(offset, end)
        ):
            return
        if offset < 0 or end < offset:
            raise IndexError(f"write [{offset}, {end}) outside {rep.key!r}")
        if end > rep.region.size:
            rep.region.resize(end)
        if offset > rep.value_size:
            # Writing past the logical end: the gap reads as zeros.
            rep.region.write(b"\x00" * (offset - rep.value_size), rep.value_size)
            rep.synced.set(rep.value_size, offset, None)
        new_size = max(rep.value_size if size is None else size, end)
        if new_size < rep.value_size:
            # Shrinking truncates: stale tail bytes must never resurface
            # if the value later regrows — what was present past the new
            # end stays present, reads zeros and keeps no version.
            rep.region.write(b"\x00" * (rep.value_size - new_size), new_size)
            for s, e, _ in [r for r in rep.synced._spans if r[1] > new_size]:
                rep.synced.set(max(s, new_size), e, None)
        rep.value_size = new_size
        # What no pull had brought is now present, synced at no version.
        for gap in rep.synced.missing(offset, end):
            rep.synced.set(*gap, None)
