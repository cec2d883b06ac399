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

_STRUCTS = {
    ("i32", 4): struct.Struct("<I"),
    ("i64", 8): struct.Struct("<Q"),
    ("f32", 4): struct.Struct("<f"),
    ("f64", 8): struct.Struct("<d"),
}

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
    protection cycle takes the slow path, invokes ``notify`` — which marks
    the page's byte range dirty in the owning region — and un-protects the
    page, the software analogue of Faasm's ``mprotect``-based dirty-page
    tracking. Subsequent stores run at full speed until the next
    re-protection (state push).
    """

    view: memoryview
    writable: bool
    shared: bool
    notify: object = None


def _fresh_page() -> Page:
    return Page(memoryview(bytearray(PAGE_SIZE)), writable=True, shared=False)


def _page_notifier(on_write, start: int, end: int):
    """Bind one page's region byte range into a zero-argument fault hook."""

    def notify() -> None:
        on_write(start, end)

    return notify


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
                start = i * PAGE_SIZE
                notify = _page_notifier(on_write, start, start + PAGE_SIZE)
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
        """Freeze every private page and return ``(views, digests)``.

        The snapshot data plane's capture entry point: digests are computed
        here, at freeze time, while the pages are known-quiescent, so the
        manifest's content addresses are stable for the snapshot's lifetime
        (frozen pages are copy-on-write — writers materialise a private
        copy, never mutate the frozen bytes).
        """
        views = self.freeze_pages()
        return views, [page_digest(v) for v in views]

    @classmethod
    def from_frozen_pages(
        cls, views: list[memoryview], memtype: MemoryType
    ) -> "LinearMemory":
        """Build a memory whose pages alias ``views`` copy-on-write."""
        mem = cls.__new__(cls)
        mem.memtype = memtype
        mem.pages = [Page(v, writable=False, shared=False) for v in views]
        mem.cow_faults = 0
        return mem

    def _materialise(self, page_idx: int) -> Page:
        """Handle a write to a protected page (a "page fault").

        COW pages are copied before the write. Write-protected *shared*
        pages are never copied: the fault marks the page dirty in its
        region (via ``notify``) and lifts the protection, after which
        stores hit the shared backing directly until re-protection.
        """
        page = self.pages[page_idx]
        if page.shared:
            page.writable = True
            if page.notify is not None:
                page.notify()
            return page
        fresh = memoryview(bytearray(page.view))
        page = Page(fresh, writable=True, shared=False)
        self.pages[page_idx] = page
        self.cow_faults += 1
        return page

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > len(self.pages) * PAGE_SIZE:
            raise OutOfBoundsMemoryAccess(addr, size, len(self.pages) * PAGE_SIZE)

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        self._check(addr, size)
        page_idx, offset = divmod(addr, PAGE_SIZE)
        if offset + size <= PAGE_SIZE:
            return bytes(self.pages[page_idx].view[offset : offset + size])
        chunks = []
        remaining = size
        while remaining > 0:
            take = min(PAGE_SIZE - offset, remaining)
            chunks.append(bytes(self.pages[page_idx].view[offset : offset + take]))
            remaining -= take
            page_idx += 1
            offset = 0
        return b"".join(chunks)

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
        data = memoryview(data)
        pos = 0
        while pos < size:
            page = self.pages[page_idx]
            if not page.writable:
                page = self._materialise(page_idx)
            take = min(PAGE_SIZE - offset, size - pos)
            page.view[offset : offset + take] = data[pos : pos + take]
            pos += take
            page_idx += 1
            offset = 0

    def fill(self, addr: int, value: int, size: int) -> None:
        """Set ``size`` bytes starting at ``addr`` to ``value``."""
        self.write(addr, bytes([value & 0xFF]) * size)

    def read_cstring(self, addr: int, max_len: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string (for host-interface paths)."""
        out = bytearray()
        while len(out) < max_len:
            b = self.read(addr + len(out), 1)
            if b == b"\x00":
                return bytes(out)
            out += b
        raise OutOfBoundsMemoryAccess(addr, max_len, self.size_bytes)

    # ------------------------------------------------------------------
    # Typed access (used by the interpreter's load/store ops)
    # ------------------------------------------------------------------
    def load_int(self, addr: int, size: int, signed: bool) -> int:
        self._check(addr, size)
        page_idx, offset = divmod(addr, PAGE_SIZE)
        if offset + size <= PAGE_SIZE:
            raw = self.pages[page_idx].view[offset : offset + size]
            value = int.from_bytes(raw, "little", signed=signed)
        else:
            value = int.from_bytes(self.read(addr, size), "little", signed=signed)
        return value

    def store_int(self, addr: int, value: int, size: int) -> None:
        self._check(addr, size)
        page_idx, offset = divmod(addr, PAGE_SIZE)
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if offset + size <= PAGE_SIZE:
            page = self.pages[page_idx]
            if not page.writable:
                page = self._materialise(page_idx)
            page.view[offset : offset + size] = data
        else:
            self.write(addr, data)

    def load_float(self, addr: int, size: int) -> float:
        self._check(addr, size)
        st = _STRUCTS[("f32", 4)] if size == 4 else _STRUCTS[("f64", 8)]
        page_idx, offset = divmod(addr, PAGE_SIZE)
        if offset + size <= PAGE_SIZE:
            return st.unpack_from(self.pages[page_idx].view, offset)[0]
        return st.unpack(self.read(addr, size))[0]

    def store_float(self, addr: int, value: float, size: int) -> None:
        self._check(addr, size)
        st = _STRUCTS[("f32", 4)] if size == 4 else _STRUCTS[("f64", 8)]
        page_idx, offset = divmod(addr, PAGE_SIZE)
        if offset + size <= PAGE_SIZE:
            page = self.pages[page_idx]
            if not page.writable:
                page = self._materialise(page_idx)
            st.pack_into(page.view, offset, value)
        else:
            self.write(addr, st.pack(value))

    # ------------------------------------------------------------------
    # v128 access (both tiers; scalar accesses are inlined by the compiled
    # tier from INLINE_LOADS/INLINE_STORES and take the typed path above
    # on a miss)
    # ------------------------------------------------------------------
    def load_v128(self, addr: int) -> bytes:
        if addr >= 0:
            page_idx, offset = divmod(addr, PAGE_SIZE)
            if offset <= PAGE_SIZE - 16 and page_idx < len(self.pages):
                return bytes(self.pages[page_idx].view[offset : offset + 16])
        self._check(addr, 16)
        return self.read(addr, 16)

    def store_v128(self, addr: int, value: bytes) -> None:
        if addr >= 0:
            page_idx, offset = divmod(addr, PAGE_SIZE)
            if offset <= PAGE_SIZE - 16 and page_idx < len(self.pages):
                page = self.pages[page_idx]
                if page.writable:
                    page.view[offset : offset + 16] = value
                    return
        self._check(addr, 16)
        self.write(addr, value)

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
        mask = (1 << (8 * size)) - 1
        with _ATOMIC_LOCK:
            old = self.load_int(addr, size, False)
            if kind == "add":
                new = (old + operand) & mask
            elif kind == "sub":
                new = (old - operand) & mask
            elif kind == "and":
                new = old & operand
            elif kind == "or":
                new = old | operand
            elif kind == "xor":
                new = old ^ operand
            elif kind == "xchg":
                new = operand & mask
            else:  # pragma: no cover - table-driven callers
                raise ValueError(f"unknown rmw kind {kind!r}")
            self.store_int(addr, new, size)
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
        return sum(
            PAGE_SIZE for p in self.pages if p.writable and not p.shared
        )


#: op mnemonic -> (struct (un)packer, canonicalising suffix): the scalar
#: accesses the compiled tier inlines when they fall inside one page,
#: testing bounds, page straddle and (stores) ``Page.writable`` itself. On
#: a miss it calls ``load_int``/``load_float``/``store_int``/``store_float``
#: (COW fault, dirty-tracking ``notify``, the trap), so this table is the
#: only other statement of the single-page case. An atomic load or store
#: is the plain access behind an alignment test (``_check_aligned``). v128
#: and the read-modify-write atomics are absent: they always go through
#: their accessors.
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
