"""Linear memory with a page table, copy-on-write and shared-region mapping.

This is the mechanism behind two of the paper's central claims:

* **SFI memory safety** (§2.2): guest code addresses a single linear byte
  array starting at offset zero; every access is bounds-checked and traps
  with :class:`OutOfBoundsMemoryAccess` on violation.

* **Faaslet shared regions** (§3.3, Fig. 2): memory is organised as a table
  of 64 KiB pages, each a ``memoryview`` into some backing buffer. Mapping a
  shared region appends pages whose views alias a *common* backing
  ``bytearray``, so two Faaslets see each other's writes with genuine
  zero-copy semantics while each still addresses its own dense linear
  address space.

* **Proto-Faaslet restore** (§5.2): a snapshot freezes its pages; a restored
  memory initially aliases them read-only and copies a page only on first
  write (copy-on-write), which is what makes restores take microseconds
  rather than milliseconds.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass
from functools import partial

from .errors import OutOfBoundsMemoryAccess, UnalignedAtomicAccess
from .types import MAX_PAGES, PAGE_SIZE, Limits, MemoryType

#: One process-wide lock serialising read-modify-write atomics. Guest
#: threads inside a Faaslet are cooperatively scheduled (never truly
#: concurrent), but shared regions can be mapped by several instances that
#: embedders may drive from different OS threads — a single global lock
#: makes cross-instance rmw on shared pages linearizable and is
#: uncontended (~no cost) everywhere else.
_ATOMIC_LOCK = threading.Lock()

#: One immutable all-zero page shared by every restored memory. Pages whose
#: digest is :data:`ZERO_DIGEST` are never shipped or stored; restores alias
#: this view copy-on-write (the software analogue of the kernel zero page).
_ZERO_BYTES = bytes(PAGE_SIZE)
ZERO_PAGE = memoryview(_ZERO_BYTES)

#: Digest of the all-zero page (the elision sentinel in manifests).
ZERO_DIGEST = hashlib.blake2b(_ZERO_BYTES, digest_size=16).hexdigest()


def page_digest(view: "bytes | bytearray | memoryview") -> str:
    """Content digest of one 64 KiB page (32 hex chars, blake2b-128).

    All-zero pages short-circuit to :data:`ZERO_DIGEST` via a memcmp-speed
    comparison — the common case for heap pages a guest grew but never
    touched — so zero-page elision costs no hashing.
    """
    if view == _ZERO_BYTES:
        return ZERO_DIGEST
    return hashlib.blake2b(view, digest_size=16).hexdigest()

_U8 = struct.Struct("<B")
_I8 = struct.Struct("<b")
_U16 = struct.Struct("<H")
_I16 = struct.Struct("<h")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


@dataclass(slots=True)
class Page:
    """One 64 KiB page of linear memory.

    ``view`` always has length :data:`PAGE_SIZE`. ``writable`` is False for
    copy-on-write pages (they alias a frozen snapshot and must be copied
    before the first store). ``shared`` marks pages that alias a
    :class:`~repro.faaslet.sharing.SharedRegion` backing buffer; these are
    never copied, so writes propagate to every mapper.

    A shared page may additionally be *write-protected* for dirty tracking
    (``writable`` False with ``notify`` set): the first store after each
    protection cycle takes the slow path: it un-protects the page, lands,
    and only then invokes ``notify``, which marks the page's byte range
    dirty in the owning region — the software analogue of Faasm's
    ``mprotect``-based dirty-page tracking. Subsequent stores run at full speed until the next
    re-protection (state push).
    """

    view: memoryview
    writable: bool
    shared: bool
    notify: object = None


#: kind -> (old, operand) -> new value of a read-modify-write atomic, before masking.
_RMW = {"add": lambda o, x: o + x, "sub": lambda o, x: o - x, "and": lambda o, x: o & x,
        "or": lambda o, x: o | x, "xor": lambda o, x: o ^ x, "xchg": lambda o, x: x}


def _fresh_page() -> Page:
    return Page(memoryview(bytearray(PAGE_SIZE)), writable=True, shared=False)


class LinearMemory:
    """A growable, bounds-checked linear memory backed by a page table."""

    def __init__(self, memtype: MemoryType | None = None):
        self.memtype = memtype or MemoryType(Limits(1))
        self.pages: list[Page] = [
            _fresh_page() for _ in range(self.memtype.limits.minimum)
        ]
        #: Number of pages copied due to COW faults (metric for §5.2).
        self.cow_faults = 0

    # ------------------------------------------------------------------
    # Size management
    # ------------------------------------------------------------------
    @property
    def size_pages(self) -> int:
        return len(self.pages)

    @property
    def size_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    def grow(self, delta_pages: int) -> int:
        """Grow by ``delta_pages``; returns the old size in pages, or -1 if
        the maximum (or the 32-bit address space) would be exceeded."""
        if delta_pages < 0:
            return -1
        new_size = len(self.pages) + delta_pages
        maximum = self.memtype.limits.maximum
        if maximum is not None and new_size > maximum:
            return -1
        if new_size > MAX_PAGES:
            return -1
        old = len(self.pages)
        self.pages.extend(_fresh_page() for _ in range(delta_pages))
        return old

    # ------------------------------------------------------------------
    # Shared regions and copy-on-write
    # ------------------------------------------------------------------
    def map_shared_pages(self, backing: bytearray, on_write=None) -> int:
        """Map ``backing`` (a multiple of PAGE_SIZE) as shared pages appended
        to the end of memory. Returns the base address of the mapping.

        This implements the remap step of §3.3: the function's linear byte
        array is extended and the new pages alias common process memory.

        With ``on_write`` (a callable taking the ``(start, end)`` byte range
        of a page *within the region*), the mapped pages start
        write-protected: the first guest store to each page reports that
        page's range dirty and unprotects it — the dirty-page tracking the
        local state tier uses for delta pushes (§4.2).
        """
        if len(backing) % PAGE_SIZE != 0:
            raise ValueError("shared region size must be a multiple of PAGE_SIZE")
        n_pages = len(backing) // PAGE_SIZE
        maximum = self.memtype.limits.maximum
        if maximum is not None and len(self.pages) + n_pages > maximum:
            raise MemoryError("shared mapping exceeds memory maximum")
        base = len(self.pages) * PAGE_SIZE
        whole = memoryview(backing)
        for i in range(n_pages):
            view = whole[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
            if on_write is None:
                self.pages.append(Page(view, writable=True, shared=True))
            else:
                notify = partial(on_write, i * PAGE_SIZE, (i + 1) * PAGE_SIZE)  # the page's region range
                self.pages.append(
                    Page(view, writable=False, shared=True, notify=notify)
                )
        return base

    def freeze_pages(self) -> list[memoryview]:
        """Make every private page read-only and return the page views.

        Used when taking a Proto-Faaslet snapshot: the snapshot and any
        memory restored from it share the frozen pages until a write occurs.
        Shared-region pages are excluded (snapshots capture private state).
        """
        views: list[memoryview] = []
        for page in self.pages:
            if page.shared:
                raise ValueError("cannot snapshot memory with mapped shared regions")
            page.writable = False
            views.append(page.view)
        return views

    def freeze_with_digests(self) -> tuple[list[memoryview], list[str]]:
        """Freeze every private page and return ``(views, digests)``: the
        capture entry point. Digests are taken here, while the pages are
        quiescent, so the manifest's content addresses hold for the
        snapshot's life (a writer copies a frozen page, never mutates it)."""
        views = self.freeze_pages()
        return views, [page_digest(v) for v in views]

    @classmethod
    def from_frozen_pages(cls, views: list[memoryview], memtype: MemoryType) -> "LinearMemory":
        """Build a memory whose pages alias ``views`` copy-on-write."""
        mem = cls.__new__(cls)
        mem.memtype, mem.cow_faults, mem.pages = memtype, 0, []
        mem.alias_frozen(views)
        return mem

    def alias_frozen(self, views: list[memoryview]) -> None:
        """Make ``views`` the whole page table (a restore, or a Faaslet's
        reset): grown pages go, a page the last call privatised keeps its
        buffer with the snapshot's bytes copied back (a warm call stores
        without a fault), every other page aliases its view copy-on-write."""
        old, self.pages = self.pages, [Page(v, writable=False, shared=False) for v in views]
        for i, page in enumerate(old[:len(views)]):
            if page.writable and not page.shared and page.view is not views[i]:
                page.view[:] = views[i]
                self.pages[i] = page

    def _fault_store(self, page_idx: int, offset: int, data) -> None:
        """Store ``data`` at ``offset`` of a protected page (a "page fault").

        COW pages are copied before the store. Write-protected *shared*
        pages are never copied: the fault lifts the protection, after which
        stores hit the shared backing directly until re-protection, and
        marks the page dirty in its region (via ``notify``) only once the
        store has landed, so a drain that takes the mark copies the store.
        """
        page = self.pages[page_idx]
        if page.shared:
            page.writable = True
        else:
            page = Page(memoryview(bytearray(page.view)), writable=True, shared=False)
            self.pages[page_idx] = page
            self.cow_faults += 1
        page.view[offset : offset + len(data)] = data
        if page.notify is not None:
            page.notify()

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > len(self.pages) * PAGE_SIZE:
            raise OutOfBoundsMemoryAccess(addr, size, len(self.pages) * PAGE_SIZE)

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        return bytes(self._span(addr, size))

    def _span(self, addr: int, size: int) -> memoryview:
        """The ``size`` bytes at ``addr``: a view of their page when they lie
        in one (the typed loads read it in place), else a copy."""
        self._check(addr, size)
        page_idx, offset = divmod(addr, PAGE_SIZE)
        if offset + size <= PAGE_SIZE:
            return self.pages[page_idx].view[offset : offset + size]
        out = memoryview(bytearray(size))
        self.read_into(addr, out)
        return out

    def read_into(self, addr: int, dest: memoryview) -> None:
        """Copy ``len(dest)`` bytes starting at ``addr`` straight into
        ``dest`` (page by page, no intermediate ``bytes`` objects) — the
        zero-copy path the state syscalls use to move guest data into a
        shared region."""
        size = len(dest)
        self._check(addr, size)
        page_idx, offset = divmod(addr, PAGE_SIZE)
        pos = 0
        while pos < size:
            take = min(PAGE_SIZE - offset, size - pos)
            dest[pos : pos + take] = self.pages[page_idx].view[offset : offset + take]
            pos += take
            page_idx += 1
            offset = 0

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Write ``data`` starting at ``addr``."""
        size = len(data)
        self._check(addr, size)
        page_idx, offset = divmod(addr, PAGE_SIZE)
        if offset + size <= PAGE_SIZE and self.pages[page_idx].writable:  # the typed stores' case
            self.pages[page_idx].view[offset : offset + size] = data
            return
        data = memoryview(data)
        pos = 0
        while pos < size:
            page = self.pages[page_idx]
            take = min(PAGE_SIZE - offset, size - pos)
            if page.writable:
                page.view[offset : offset + take] = data[pos : pos + take]
            else:
                self._fault_store(page_idx, offset, data[pos : pos + take])
            pos += take
            page_idx += 1
            offset = 0

    def fill(self, addr: int, value: int, size: int) -> None:
        """Set ``size`` bytes starting at ``addr`` to ``value``."""
        self.write(addr, bytes([value & 0xFF]) * size)

    # ------------------------------------------------------------------
    # Typed access: the interpreter's, and the compiled tier's on a miss
    # ------------------------------------------------------------------
    def load_int(self, addr: int, size: int, signed: bool) -> int:
        return int.from_bytes(self._span(addr, size), "little", signed=signed)

    def store_int(self, addr: int, value: int, size: int) -> None:
        self.write(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def load_float(self, addr: int, size: int) -> float:
        return (_F32 if size == 4 else _F64).unpack(self._span(addr, size))[0]

    def store_float(self, addr: int, value: float, size: int) -> None:
        self.write(addr, (_F32 if size == 4 else _F64).pack(value))

    # ------------------------------------------------------------------
    # Atomics (sequentially consistent; unaligned accesses trap)
    # ------------------------------------------------------------------
    def _check_aligned(self, addr: int, size: int) -> None:
        if addr % size:
            raise UnalignedAtomicAccess(addr, size)

    def atomic_rmw(self, addr: int, operand: int, size: int, kind: str) -> int:
        """Atomically apply ``kind`` at ``addr``; returns the old value.

        The bounds/alignment checks run *before* the lock is taken so traps
        cannot leave it held.
        """
        self._check_aligned(addr, size)
        self._check(addr, size)
        rmw = _RMW[kind]
        with _ATOMIC_LOCK:
            old = self.load_int(addr, size, False)
            self.store_int(addr, rmw(old, operand), size)  # store_int masks to ``size``
        return old

    def atomic_cmpxchg(
        self, addr: int, expected: int, replacement: int, size: int
    ) -> int:
        """Atomic compare-exchange; returns the value observed at ``addr``."""
        self._check_aligned(addr, size)
        self._check(addr, size)
        with _ATOMIC_LOCK:
            old = self.load_int(addr, size, False)
            if old == expected:
                self.store_int(addr, replacement, size)
        return old

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_private_bytes(self) -> int:
        """Bytes of private memory this instance uniquely owns (RSS-like).

        COW pages still aliasing a snapshot and shared-region pages are not
        counted, mirroring how PSS/RSS differ for containers in Tab. 3.
        """
        return sum(PAGE_SIZE for p in self.pages if p.writable and not p.shared)


#: op mnemonic -> (struct (un)packer, canonicalising suffix): the accesses
#: the compiled tier inlines when they fall inside one page, testing bounds,
#: page straddle and (stores) ``Page.writable`` itself; a miss calls an
#: accessor above (COW fault, ``notify``, trap). An atomic load or store
#: is the plain access behind an alignment test (``_check_aligned``); the
#: read-modify-write atomics always go through their accessors.
INLINE_LOADS = {
    "i32.load": (_U32.unpack_from, ""),
    "i64.load": (_U64.unpack_from, ""),
    "f32.load": (_F32.unpack_from, ""),
    "f64.load": (_F64.unpack_from, ""),
    "i32.load8_s": (_I8.unpack_from, " & 0xFFFFFFFF"),
    "i32.load8_u": (_U8.unpack_from, ""),
    "i32.load16_s": (_I16.unpack_from, " & 0xFFFFFFFF"),
    "i32.load16_u": (_U16.unpack_from, ""),
    "i64.load32_s": (_I32.unpack_from, " & 0xFFFFFFFFFFFFFFFF"),
    "i64.load32_u": (_U32.unpack_from, ""),
    "i32.atomic.load": (_U32.unpack_from, ""),
    "i64.atomic.load": (_U64.unpack_from, ""),
}

INLINE_STORES = {
    "i32.store": (_U32.pack_into, ""),
    "i64.store": (_U64.pack_into, ""),
    "f32.store": (_F32.pack_into, ""),
    "f64.store": (_F64.pack_into, ""),
    "i32.store8": (_U8.pack_into, " & 0xFF"),
    "i32.store16": (_U16.pack_into, " & 0xFFFF"),
    "i64.store32": (_U32.pack_into, " & 0xFFFFFFFF"),
    "i32.atomic.store": (_U32.pack_into, ""),
    "i64.atomic.store": (_U64.pack_into, ""),
}
