"""Distributed data objects (DDOs, §4/§4.1).

DDOs are the high-level, language-specific classes users program against;
each one wraps a single state key (or a small family of keys) and hides the
two-tier architecture behind ordinary container semantics. They map onto
the state API exactly as in the paper: reads pull lazily, writes go to the
local tier, and explicit/periodic pushes propagate to the global tier with
whatever consistency the object chooses.

The three objects from Listing 1 are here (``SparseMatrixReadOnly``,
``MatrixReadOnly``, ``VectorAsync``) plus a dictionary, a list and an
immutable value.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

from .api import StateAPI
from .kv import StateKeyError


class DistributedObject:
    """Base class: one state key managed through a :class:`StateAPI`."""

    def __init__(self, api: StateAPI, key: str):
        self.api = api
        self.key = key

    def exists(self) -> bool:
        return self.api.exists(self.key)

    def delete(self) -> None:
        self.api.delete(self.key)


class ImmutableValue(DistributedObject):
    """A write-once value; replicas never need re-synchronisation."""

    def __init__(self, api: StateAPI, key: str):
        super().__init__(api, key)
        self._cached: bytes | None = None

    def create(self, value: bytes) -> None:
        if self.api.exists(self.key):
            raise ValueError(f"immutable value {self.key!r} already exists")
        self.api.set_state(self.key, value)
        self.api.push_state(self.key)
        self._cached = bytes(value)

    def get(self) -> bytes:
        if self._cached is None:
            self._cached = bytes(self.api.get_state(self.key))
        return self._cached


class DistributedDict(DistributedObject):
    """A pickled dictionary with explicit push/pull and an optional strongly
    consistent update path."""

    def _load(self) -> dict:
        try:
            # pickle reads straight from the replica view (no bytes copy).
            raw = self.api.get_state(self.key)
        except StateKeyError:
            return {}
        return pickle.loads(raw) if len(raw) else {}

    def _store(self, data: dict) -> None:
        self.api.set_state(self.key, pickle.dumps(data))

    def get(self, item, default=None):
        return self._load().get(item, default)

    def put(self, item, value) -> None:
        """Eventually-consistent write: local update + full push."""
        data = self._load()
        data[item] = value
        self._store(data)
        self.api.push_state(self.key)

    def update_atomic(self, fn) -> dict:
        """Strongly consistent read-modify-write under the global lock."""
        self.api.lock_state_global_write(self.key)
        try:
            if self.api.tier.client.exists(self.key):
                self.api.pull_state(self.key)
            data = self._load()
            fn(data)
            self._store(data)
            self.api.push_state(self.key)
            return data
        finally:
            self.api.unlock_state_global_write(self.key)

    def items(self) -> dict:
        return self._load()

    def pull(self) -> None:
        self.api.pull_state(self.key)


class DistributedList(DistributedObject):
    """An append-only list built on the global tier's append operation.

    Appends are naturally eventually consistent: they commute, so no
    locking is required (the paper's example of a consistency-relaxed DDO).
    """

    _LEN = struct.Struct("<I")

    def append(self, value: bytes) -> None:
        self.api.append_state(self.key, self._LEN.pack(len(value)) + value)

    def items(self) -> list[bytes]:
        try:
            raw = self.api.read_appended(self.key)
        except StateKeyError:
            return []
        out: list[bytes] = []
        pos = 0
        while pos < len(raw):
            (n,) = self._LEN.unpack_from(raw, pos)
            pos += self._LEN.size
            out.append(bytes(raw[pos : pos + n]))
            pos += n
        return out

    def __len__(self) -> int:
        return len(self.items())


class DistributedCounter(DistributedObject):
    """A conflict-free distributed counter (G-counter style).

    ``VectorAsync``-style whole-value pushes race under concurrent writers
    (last writer wins). The counter instead gives each host its own sub-key
    — increments touch only the local host's slot, pushes never conflict,
    and the value is the sum over all hosts' slots. This is the DDO pattern
    the paper describes for consistency-relaxed structures (§4.1): cheap
    eventually-consistent updates with a well-defined merge.
    """

    _SLOT = struct.Struct("<q")

    def _slot_key(self) -> str:
        return f"{self.key}:host:{self.api.tier.host}"

    def increment(self, amount: int = 1) -> None:
        """Add to this host's slot locally (propagates on push)."""
        key = self._slot_key()
        try:
            current = self._SLOT.unpack(bytes(self.api.get_state(key, size=8)))[0]
        except StateKeyError:
            current = 0
        self.api.set_state(key, self._SLOT.pack(current + amount))

    def push(self) -> None:
        """Publish this host's slot (never conflicts with other hosts)."""
        self.api.push_state(self._slot_key())

    def local_value(self) -> int:
        """This host's contribution."""
        try:
            return self._SLOT.unpack(bytes(self.api.get_state(self._slot_key())))[0]
        except StateKeyError:
            return 0

    def value(self) -> int:
        """The merged global value: every other host's pushed slot, plus
        this host's, pushed or not."""
        prefix, mine, client = f"{self.key}:host:", self._slot_key(), self.api.tier.client
        others = sum(
            self._SLOT.unpack(client.pull(key))[0]
            for key in client.store.keys() if key.startswith(prefix) and key != mine
        )
        return others + self.local_value()


class VectorAsync(DistributedObject):
    """A float64 vector with asynchronous (batched) global updates.

    Reads and writes hit the local replica through a zero-copy numpy view;
    ``push()`` propagates local updates to the global tier and ``pull()``
    refreshes it — the eventual-consistency pattern ``weights`` uses in
    Listing 1.

    Pushes are **delta pushes**: at push time the live array is diffed
    against a shadow copy of the last sync (Faasm's dirty-byte comparison
    against the original snapshot), and only the changed element ranges
    are marked dirty — a sparse SGD update moves a few dozen bytes, and
    in-place numpy writes through :attr:`array` need no write hooks.
    """

    #: Changed elements closer than this merge into one flushed span (the
    #: per-range framing overhead outweighs re-sending a few clean bytes).
    _COALESCE_GAP = 8

    def __init__(self, api: StateAPI, key: str, length: int):
        super().__init__(api, key)
        self.length = length
        view = api.get_state(key, size=length * 8, mark_dirty=False)
        self._array = np.frombuffer(view, dtype=np.float64)
        self._replica = api.tier.replica(key)
        self._shadow = self._array.copy()

    @classmethod
    def create(cls, api: StateAPI, key: str, values: np.ndarray) -> "VectorAsync":
        values = np.asarray(values, dtype=np.float64)
        api.set_state(key, values.tobytes())
        api.push_state(key)
        return cls(api, key, len(values))

    @property
    def array(self) -> np.ndarray:
        """The live local view; writes are local until ``push()``."""
        return self._array

    def __getitem__(self, idx):
        return self._array[idx]

    def __setitem__(self, idx, value) -> None:
        self._array[idx] = value

    def __len__(self) -> int:
        return self.length

    def _changed_spans(self) -> list[tuple[int, int]]:
        """Element ranges where the live array differs from the shadow,
        coalescing near-adjacent changes."""
        changed = np.flatnonzero(self._array != self._shadow)
        if changed.size == 0:
            return []
        cut = np.flatnonzero(np.diff(changed) > self._COALESCE_GAP)
        starts = [int(changed[0]), *changed[cut + 1].tolist()]
        ends = [*(changed[cut] + 1).tolist(), int(changed[-1]) + 1]
        return list(zip(starts, ends))

    def push(self) -> None:
        """Flush elements modified since the last sync (delta push)."""
        for lo, hi in self._changed_spans():
            self._replica.mark_dirty(lo * 8, hi * 8)
        self.api.push_state(self.key)
        np.copyto(self._shadow, self._array)

    def pull(self) -> None:
        self.api.pull_state(self.key)
        np.copyto(self._shadow, self._array)


class MatrixReadOnly(DistributedObject):
    """A dense float64 matrix with chunked, column-range reads.

    The matrix is stored column-major so a column range is one contiguous
    state chunk; ``columns(a, b)`` pulls only that chunk into the local tier
    (Fig. 4's value ``C``).
    """

    _META = struct.Struct("<II")  # rows, cols

    def __init__(self, api: StateAPI, key: str):
        super().__init__(api, key)
        meta = bytes(api.get_state(self.meta_key(key)))
        self.rows, self.cols = self._META.unpack(meta)

    @staticmethod
    def meta_key(key: str) -> str:
        return f"{key}:meta"

    @classmethod
    def create(cls, api: StateAPI, key: str, matrix: np.ndarray) -> "MatrixReadOnly":
        matrix = np.asarray(matrix, dtype=np.float64)
        rows, cols = matrix.shape
        api.set_state(cls.meta_key(key), cls._META.pack(rows, cols))
        api.push_state(cls.meta_key(key))
        api.set_state(key, np.asfortranarray(matrix).tobytes(order="F"))
        api.push_state(key)
        return cls(api, key)

    def columns(self, start: int, end: int) -> np.ndarray:
        """Columns [start, end) as a read-only array, pulling one chunk."""
        if not 0 <= start <= end <= self.cols:
            raise IndexError(f"column range [{start}, {end}) outside {self.cols}")
        nbytes = (end - start) * self.rows * 8
        offset = start * self.rows * 8
        # Read-only access: no dirty marking, the chunk is never pushed.
        view = self.api.get_state_offset(self.key, offset, nbytes, mark_dirty=False)
        arr = np.frombuffer(view, dtype=np.float64).reshape(
            (self.rows, end - start), order="F"
        )
        arr.flags.writeable = False
        return arr

    def full(self) -> np.ndarray:
        return self.columns(0, self.cols)


class SparseMatrixReadOnly(DistributedObject):
    """A CSC sparse float64 matrix with chunked column-range reads.

    Stored as three state values (``data``, ``indices``, ``indptr``); a
    column-range read pulls the small ``indptr`` array plus only the data
    and index chunks those columns cover, mirroring how the SGD training
    matrices are accessed in Listing 1.
    """

    _META = struct.Struct("<III")  # rows, cols, nnz

    def __init__(self, api: StateAPI, key: str):
        super().__init__(api, key)
        meta = bytes(api.get_state(f"{key}:meta"))
        self.rows, self.cols, self.nnz = self._META.unpack(meta)
        indptr_view = api.get_state(f"{key}:indptr")
        self._indptr = np.frombuffer(indptr_view, dtype=np.int64)

    @classmethod
    def create(cls, api: StateAPI, key: str, matrix) -> "SparseMatrixReadOnly":
        from scipy.sparse import csc_matrix

        csc = csc_matrix(matrix, dtype=np.float64)
        rows, cols = csc.shape
        for part, value in (
            ("meta", cls._META.pack(rows, cols, csc.nnz)),
            ("indptr", csc.indptr.astype(np.int64).tobytes()),
            ("indices", csc.indices.astype(np.int32).tobytes()),
            ("data", csc.data.astype(np.float64).tobytes()),
        ):
            api.set_state(f"{key}:{part}", value)
            api.push_state(f"{key}:{part}")
        return cls(api, key)

    def columns(self, start: int, end: int):
        """Columns [start, end) as a ``scipy.sparse.csc_matrix``, pulling
        only the chunks they cover."""
        from scipy.sparse import csc_matrix

        if not 0 <= start <= end <= self.cols:
            raise IndexError(f"column range [{start}, {end}) outside {self.cols}")
        lo = int(self._indptr[start])
        hi = int(self._indptr[end])
        data_view = self.api.get_state_offset(
            f"{self.key}:data", lo * 8, (hi - lo) * 8, mark_dirty=False
        )
        idx_view = self.api.get_state_offset(
            f"{self.key}:indices", lo * 4, (hi - lo) * 4, mark_dirty=False
        )
        data = np.frombuffer(data_view, dtype=np.float64)
        indices = np.frombuffer(idx_view, dtype=np.int32)
        indptr = (self._indptr[start : end + 1] - lo).astype(np.int32)
        return csc_matrix((data, indices, indptr), shape=(self.rows, end - start))
