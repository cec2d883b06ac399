"""Shared memory regions (§3.3, Fig. 2).

A :class:`SharedRegion` is a page-aligned buffer of "common process memory".
Mapping it into a Faaslet extends that Faaslet's linear byte array and remaps
the new pages onto the region's backing buffer, so every mapper sees the same
bytes with zero copies — the Python analogue of ``mmap(MAP_SHARED)`` +
``mremap`` in the paper.

The local state tier (§4.2) stores its replicas exclusively in shared
regions, which is how co-located Faaslets share state values in memory.
"""

from __future__ import annotations

import threading

from repro.wasm.memory import LinearMemory
from repro.wasm.types import PAGE_SIZE


def _round_up_pages(nbytes: int) -> int:
    return max(1, -(-nbytes // PAGE_SIZE))


class SharedRegion:
    """A page-aligned shared buffer mappable into many Faaslets' memories."""

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError("shared region size must be positive")
        self.name = name
        #: Usable size requested by the creator (backing is page-aligned).
        self.size = size
        self.n_pages = _round_up_pages(size)
        self.backing = bytearray(self.n_pages * PAGE_SIZE)
        #: The backing as one view: slicing it is half the cost of viewing
        #: the bytearray anew, and a store into it copies once, not twice.
        self.buffer = memoryview(self.backing)
        self._lock = threading.Lock()
        #: Number of linear memories this region is currently mapped into.
        self.mapping_count = 0
        #: Write listeners (the state tier's dirty tracking, §4.2): each is
        #: called with the [start, end) byte range of a tracked write.
        self._write_listeners: list = []
        #: Pages this region is mapped through while a listener is armed;
        #: kept so pushes can re-protect every mapper (dirty-flush reset).
        self._mapped_pages: list = []

    # ------------------------------------------------------------------
    # Write tracking (delta-sync data plane)
    # ------------------------------------------------------------------
    def add_write_listener(self, fn) -> None:
        """Arm write tracking: ``fn(start, end)`` fires for host writes via
        :meth:`write` and (page-granular) for guest stores into mapped
        pages. The local tier's replicas use this to maintain their dirty
        interval sets."""
        with self._lock:
            self._write_listeners.append(fn)

    def _notify_write(self, start: int, end: int) -> None:
        end = min(end, self.size)
        if end <= start:
            return
        for fn in self._write_listeners:
            fn(start, end)

    def reprotect_mappings(self) -> None:
        """Re-arm page-granular write tracking on every mapping after a drain:
        the next guest store to each shared page faults once and re-marks it.
        A pass never stores to a mapped page; only an inline store, between
        its ``writable`` test and its store, can race this reset and go
        unrecorded until its page faults again (DDOs tolerate it, §4.1/§6.2)."""
        with self._lock:
            for page in self._mapped_pages:
                page.writable = False

    # ------------------------------------------------------------------
    def map_into(self, memory: LinearMemory) -> int:
        """Map this region into ``memory``; returns the guest base address.

        The guest sees the region as ordinary linear memory starting at the
        returned offset; loads and stores are bounds-checked as usual.
        While a write listener is armed the new pages start write-protected
        so guest stores are dirty-tracked page-granularly.
        """
        with self._lock:
            on_write = self._notify_write if self._write_listeners else None
            base = memory.map_shared_pages(self.backing, on_write=on_write)
            if on_write is not None:
                first = base // PAGE_SIZE
                self._mapped_pages.extend(
                    memory.pages[first : first + self.n_pages]
                )
            self.mapping_count += 1
            return base

    def unmap_from(self, memory: LinearMemory, base: int) -> None:
        """Undo the :meth:`map_into` that returned ``base`` (its mapper's
        reset or close): it stops counting, its pages stop being re-protected."""
        first = base // PAGE_SIZE
        mine = {id(page) for page in memory.pages[first : first + self.n_pages]}
        with self._lock:
            self.mapping_count -= 1
            self._mapped_pages = [p for p in self._mapped_pages if id(p) not in mine]

    # ------------------------------------------------------------------
    # Host-side access (used by the state tier).
    # ------------------------------------------------------------------
    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        length = self.size - offset if length is None else length
        self._check(offset, length)
        return bytes(self.backing[offset : offset + length])

    def write(self, data: bytes | bytearray | memoryview, offset: int = 0) -> None:
        self._check(offset, len(data))
        self.buffer[offset : offset + len(data)] = data  # one copy, not two
        self._notify_write(offset, offset + len(data))

    def view(self, offset: int = 0, length: int | None = None) -> memoryview:
        """A zero-copy writable view (host-side fast path for numpy DDOs).

        Writes through a view are *not* write-tracked: the state tier uses
        views for pulls (bytes arriving from the global tier are present,
        not dirty), and callers mutating state through a view must report
        their writes via :class:`~repro.state.local.Replica.mark_dirty`
        (or accept a conservative whole-value dirty mark, as
        ``StateAPI.get_state`` applies).
        """
        length = self.size - offset if length is None else length
        self._check(offset, length)
        return self.buffer[offset : offset + length]

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise IndexError(
                f"region {self.name!r}: access [{offset}, {offset + length}) "
                f"outside size {self.size}"
            )

    def resize(self, new_size: int) -> None:
        """Grow the region (e.g. after a state value grows via append).

        Growth beyond the current page allocation reallocates the backing,
        which is only legal while the region is unmapped: remapping mapped
        guests would change their view identity.
        """
        if new_size <= self.size:
            self.size = max(self.size, new_size)
            return
        needed_pages = _round_up_pages(new_size)
        if needed_pages > self.n_pages:
            if self.mapping_count:
                raise RuntimeError(
                    f"cannot reallocate mapped region {self.name!r}"
                )
            fresh = bytearray(needed_pages * PAGE_SIZE)
            fresh[: len(self.backing)] = self.backing
            self.backing, self.buffer = fresh, memoryview(fresh)
            self.n_pages = needed_pages
        self.size = new_size
