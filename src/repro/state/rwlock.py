"""A reentrancy-free reader–writer lock.

Used for both local-tier replica locks and global-tier per-key locks
(Tab. 2: ``lock_state_read/write`` and ``lock_state_global_read/write``).
Writer-preferring: once a writer is waiting, new readers queue behind it,
bounding writer starvation under read-heavy workloads like shared matrices.

An uncontended acquire or release is one hold of a plain mutex: the
condition variable is waited on, and notified, only when somebody has to
wait.
"""

from __future__ import annotations

import threading


class _Held:
    """``with`` support for one side of an :class:`RWLock` (stateless, so
    one instance serves every thread)."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc) -> None:
        self._release()


class RWLock:
    """A writer-preferring reader–writer lock."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._readers_waiting = 0
        self._read_held = _Held(self.acquire_read, self.release_read)
        self._write_held = _Held(self.acquire_write, self.release_write)

    # -- write side --------------------------------------------------------
    def acquire_write(self, timeout: float | None = None) -> bool:
        with self._mutex:
            if not self._writer and self._readers == 0:
                self._writer = True
                return True
            self._writers_waiting += 1
            try:
                ok = self._cond.wait_for(
                    lambda: not self._writer and self._readers == 0, timeout
                )
                if not ok:
                    return False
                self._writer = True
                return True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._mutex:
            if not self._writer:
                raise RuntimeError("release_write without a held write lock")
            self._writer = False
            if self._writers_waiting or self._readers_waiting:
                self._cond.notify_all()

    # -- read side ----------------------------------------------------------
    def acquire_read(self, timeout: float | None = None) -> bool:
        with self._mutex:
            if not self._writer and self._writers_waiting == 0:
                self._readers += 1
                return True
            self._readers_waiting += 1
            try:
                ok = self._cond.wait_for(
                    lambda: not self._writer and self._writers_waiting == 0,
                    timeout,
                )
            finally:
                self._readers_waiting -= 1
            if not ok:
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._mutex:
            if self._readers <= 0:
                raise RuntimeError("release_read without a held read lock")
            self._readers -= 1
            if self._readers == 0 and (
                self._writers_waiting or self._readers_waiting
            ):
                self._cond.notify_all()

    # -- context managers --------------------------------------------------
    def read_locked(self) -> _Held:
        return self._read_held

    def write_locked(self) -> _Held:
        return self._write_held

    # -- introspection (tests) ----------------------------------------------
    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_held(self) -> bool:
        return self._writer
