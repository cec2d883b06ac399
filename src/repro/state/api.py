"""The key/value state API of Tab. 2, bound to one host's local tier.

This is the surface both the Faaslet host interface (guest-facing) and the
distributed data objects (host-facing) are built on: ``get/set_state`` (and
offset variants) touch the local tier only; ``push/pull_state`` move data
between tiers; ``append_state`` goes straight to the global tier; lock
functions expose the local and global read/write locks.
"""

from __future__ import annotations

from contextlib import contextmanager

from .local import LocalTier


class StateAPI:
    """Host-side implementation of the paper's state API (Tab. 2)."""

    def __init__(self, tier: LocalTier):
        self.tier = tier

    # ------------------------------------------------------------------
    # get/set (local tier)
    # ------------------------------------------------------------------
    def get_state(
        self, key: str, size: int | None = None, mark_dirty: bool = True
    ) -> memoryview:
        """Pointer (zero-copy view) to the local replica of ``key``.

        Per §4.2, a replica is created (and pulled from the global tier)
        only "if it does not already exist": an existing replica is returned
        as-is, preserving local writes that have not been pushed yet. With
        an explicit ``size`` a key missing everywhere yields a zeroed local
        value, as when a function creates state it will later push.

        Because the returned view is writable and untracked, the whole
        value is conservatively marked dirty (the next push behaves like a
        classic full push). Callers that report their own writes precisely
        — the DDOs' delta paths — pass ``mark_dirty=False``.
        """
        if self.tier.has_replica(key):
            rep = self.tier.replica(key, size)
        elif size is not None and not self.tier.client.exists(key):
            rep = self.tier.create(key, size)
        else:
            rep = self.tier.pull(key)
        if mark_dirty:
            rep.mark_dirty(0, rep.size)
        return rep.region.view(0, rep.size)

    def get_state_offset(
        self, key: str, offset: int, length: int, mark_dirty: bool = True
    ) -> memoryview:
        """Pointer to a chunk of the replica, pulling only that chunk (the
        chunk is conservatively marked dirty unless the caller opts out and
        tracks its own writes)."""
        rep = self.tier.pull_chunk(key, offset, length)
        if mark_dirty:
            rep.mark_dirty(offset, offset + length)
        return rep.region.view(offset, length)

    def set_state(self, key: str, value: bytes) -> None:
        """Set the local replica's value (no global traffic)."""
        self.tier.write_local(key, value, 0, size=len(value))

    def set_state_offset(self, key: str, value: bytes, offset: int) -> None:
        self.tier.write_local(key, value, offset)

    def set_state_from_memory(
        self, key: str, memory, addr: int, length: int,
        offset: int = 0, size: int | None = None,
    ) -> None:
        """Zero-copy ``set_state`` for the host interface: bytes move from
        the guest's linear memory pages straight into the replica's shared
        region, no intermediate ``bytes`` object."""
        self.tier.write_local_from_memory(
            key, memory, addr, length, offset=offset, size=size
        )

    # ------------------------------------------------------------------
    # push/pull (tier movement)
    # ------------------------------------------------------------------
    def push_state(self, key: str) -> None:
        self.tier.push(key)

    def push_state_offset(self, key: str, offset: int, length: int) -> None:
        self.tier.push_chunk(key, offset, length)

    def pull_state(self, key: str) -> None:
        self.tier.pull(key, force=True)

    def pull_state_offset(self, key: str, offset: int, length: int) -> None:
        self.tier.pull_chunk(key, offset, length, force=True)

    # ------------------------------------------------------------------
    # append (global tier)
    # ------------------------------------------------------------------
    def append_state(self, key: str, value: bytes) -> None:
        self.tier.client.append(key, value)

    def read_appended(self, key: str) -> bytes:
        return self.tier.client.pull(key)

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------
    def lock_state_read(self, key: str) -> None:
        self.tier.replica(key).lock.acquire_read()

    def unlock_state_read(self, key: str) -> None:
        self.tier.replica(key).lock.release_read()

    def lock_state_write(self, key: str) -> None:
        self.tier.replica(key).lock.acquire_write()

    def unlock_state_write(self, key: str) -> None:
        self.tier.replica(key).lock.release_write()

    def lock_state_global_read(self, key: str) -> None:
        self.tier.client.lock_for(key).acquire_read()

    def unlock_state_global_read(self, key: str) -> None:
        self.tier.client.lock_for(key).release_read()

    def lock_state_global_write(self, key: str) -> None:
        self.tier.client.lock_for(key).acquire_write()

    def unlock_state_global_write(self, key: str) -> None:
        self.tier.client.lock_for(key).release_write()

    @contextmanager
    def consistent_write(self, key: str):
        """The strongly consistent write recipe from §4.2: acquire the
        global write lock, pull, yield the replica view for modification,
        push, release."""
        self.lock_state_global_write(key)
        try:
            if self.tier.client.exists(key):
                self.pull_state(key)
            rep = self.tier.replica(key)
            yield rep.region.view(0, rep.size)
            # The caller wrote through an untracked view: mark the whole
            # value dirty so the push flushes it.
            rep.mark_dirty(0, rep.size)
            self.push_state(key)
        finally:
            self.unlock_state_global_write(key)

    # ------------------------------------------------------------------
    def state_size(self, key: str) -> int:
        if self.tier.has_replica(key):
            return self.tier.replica(key).size
        return self.tier.client.size(key)

    def exists(self, key: str) -> bool:
        return self.tier.has_replica(key) or self.tier.client.exists(key)

    def delete(self, key: str) -> None:
        self.tier.drop(key)
        self.tier.client.delete(key)
