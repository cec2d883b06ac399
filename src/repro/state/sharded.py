"""A sharded global tier (the paper's §7 "autoscaling storage" direction).

The paper's global tier is one Redis deployment and notes that systems like
Anna, Tuba and Pocket would shard and autoscale it. This module provides
that extension: a drop-in :class:`GlobalStateStore` replacement that
partitions keys over N shards by stable hashing, with per-shard accounting
so experiments can observe load distribution — and a resharding operation
that grows the shard count while preserving every key (the "autoscaling"
step, done stop-the-world as Tuba does within constraints).

``ShardedStateStore`` is API-compatible with ``GlobalStateStore``: the
whole runtime (StateClient, LocalTier, scheduler warm sets) works unchanged
on top of it.
"""

from __future__ import annotations

import hashlib
import threading

from .kv import GlobalStateStore
from .rwlock import RWLock


def _stable_hash(key: str) -> int:
    return int.from_bytes(hashlib.blake2s(key.encode(), digest_size=8).digest(), "big")


class ShardedStateStore:
    """Key-partitioned global tier with per-shard accounting."""

    def __init__(self, n_shards: int = 4):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self._shards = [GlobalStateStore() for _ in range(n_shards)]
        self._mutex = threading.Lock()
        #: Operations routed to each shard (load-balance observability).
        self.shard_ops = [0] * n_shards

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_for(self, key: str) -> int:
        return _stable_hash(key) % len(self._shards)

    def _route(self, key: str) -> GlobalStateStore:
        index = self.shard_for(key)
        with self._mutex:
            self.shard_ops[index] += 1
        return self._shards[index]

    # ------------------------------------------------------------------
    # GlobalStateStore API (delegated per key)
    # ------------------------------------------------------------------
    def set_value(self, key, value):
        self._route(key).set_value(key, value)

    def get_value(self, key):
        return self._route(key).get_value(key)

    def get_value_versioned(self, key):
        return self._route(key).get_value_versioned(key)

    def get_range(self, key, offset, length):
        return self._route(key).get_range(key, offset, length)

    def get_ranges_into(self, key, dests):
        """Batched zero-copy multi-range read (one routed call)."""
        return self._route(key).get_ranges_into(key, dests)

    def get_ranges_into_versioned(self, key, dests):
        return self._route(key).get_ranges_into_versioned(key, dests)

    def get_since(self, key, since, view, extra=()):
        return self._route(key).get_since(key, since, view, extra)

    def set_range(self, key, offset, data):
        self._route(key).set_range(key, offset, data)

    def set_ranges(self, key, parts, truncate_to=None):
        """Batched multi-range write (one routed call)."""
        return self._route(key).set_ranges(key, parts, truncate_to)

    def set_ranges_versioned(self, key, parts, truncate_to=None):
        return self._route(key).set_ranges_versioned(key, parts, truncate_to)

    def append(self, key, data):
        self._route(key).append(key, data)

    def delete(self, key):
        self._route(key).delete(key)

    def exists(self, key):
        return self._route(key).exists(key)

    def size(self, key):
        return self._route(key).size(key)

    def version(self, key):
        return self._route(key).version(key)

    def lock_for(self, key) -> RWLock:
        return self._route(key).lock_for(key)

    def atomic_update(self, key, fn):
        return self._route(key).atomic_update(key, fn)

    def keys(self) -> list[str]:
        out: list[str] = []
        for shard in self._shards:
            out.extend(shard.keys())
        return sorted(out)

    def total_bytes(self) -> int:
        return sum(shard.total_bytes() for shard in self._shards)

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    def shard_sizes(self) -> list[int]:
        """Bytes stored per shard."""
        return [shard.total_bytes() for shard in self._shards]

    def reshard(self, n_shards: int) -> int:
        """Repartition onto ``n_shards`` shards; returns keys moved.

        Stop-the-world: concurrent writers must be quiesced by the caller
        (the runtime performs resharding between scheduling epochs). Every
        key keeps its write version — deleted keys too — so a version a
        replica remembers never comes to name a different value.
        """
        if n_shards < 1:
            raise ValueError("need at least one shard")
        with self._mutex:
            old_shards = self._shards
            self._shards = [GlobalStateStore() for _ in range(n_shards)]
            self.shard_ops = [0] * n_shards
            moved = 0
            for shard in old_shards:
                for key, version in shard.versions().items():
                    value = shard.get_value(key) if shard.exists(key) else None
                    target = _stable_hash(key) % n_shards
                    self._shards[target].adopt(key, value, version)
                    moved += value is not None
            return moved

    def imbalance(self) -> float:
        """max/mean shard size (1.0 = perfectly even); empty store → 1.0."""
        sizes = self.shard_sizes()
        total = sum(sizes)
        if total == 0:
            return 1.0
        mean = total / len(sizes)
        return max(sizes) / mean
