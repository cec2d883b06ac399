"""The global state tier: a Redis-like in-memory key-value store (§4.2).

The authoritative copy of every state value lives here; hosts pull replicas
into their local tier and push updates back. The store supports the byte-
oriented operations the state API needs (whole values, ranges, appends) plus
per-key distributed read/write locks.

Concurrency: keys are spread over **stripes** by ``crc32(key) % n`` (per-key
striping instead of one store-wide mutex), so operations on different keys
from different hosts' dispatcher threads proceed in parallel — the Python
analogue of Redis's per-connection pipelining plus the paper's observation
that the global tier must not serialise independent keys. A stripe is a
plain lock and also the store's partition: it is the unit a chaos plan
takes down, and :meth:`GlobalStateStore.reshard` changes how many there are
(the §7 "autoscaling storage" direction of Anna, Tuba and Pocket) without
touching a value.

Data movement is **batched and zero-copy**: a list of byte ranges moves in
one metered round trip, copied straight between the store's bytearray and
the caller's ``memoryview`` of a shared region.

Every byte moved through a :class:`StateClient` is charged to that client's
:class:`TransferMeter`, which is how the experiments of Figs. 6b and 8b
account network traffic: in the paper's deployment the global tier is a
remote Redis, so every pull/push is a network transfer — and every client
call is one network **round trip**, counted in ``round_trips``.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from itertools import chain

from repro.telemetry import MetricsRegistry

from .rwlock import RWLock


class StateKeyError(KeyError):
    """The requested state key does not exist in the global tier."""


class StateUnavailableError(RuntimeError):
    """A transient availability failure of the global tier.

    Raised while a chaos plan has taken one of the store's stripes down
    (a Redis shard partitioned away). :class:`StateClient` retries a
    bounded number of times with a small backoff; the runtime treats
    exhaustion as an attempt failure that the invocation monitor re-queues.
    """


class TransferMeter:
    """Counts bytes and round trips exchanged with the global tier.

    A thin view over metrics-registry counters (``state.bytes_sent`` /
    ``state.bytes_received`` / ``state.round_trips``), labelled ``host=``
    by a host's runtime instance, so the numbers show per host and
    cluster-aggregated. The counters are locked: one host's threads share
    a meter, and a dropped count would corrupt the Fig. 6b/8b accounting.
    """

    def __init__(self, metrics: MetricsRegistry | None = None, **labels) -> None:
        # `is None`, not truthiness: an empty registry has len() == 0.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._sent = metrics.counter("state.bytes_sent", **labels)
        self._received = metrics.counter("state.bytes_received", **labels)
        #: Client calls to the global tier — each is one network round trip
        #: in the paper's deployment, regardless of how many byte ranges it
        #: batches.
        self._trips = metrics.counter("state.round_trips", **labels)

    def record_sent(self, nbytes: int) -> None:
        """Charge one outbound round trip carrying ``nbytes``."""
        self._sent.inc(nbytes)
        self._trips.inc()

    def record_received(self, nbytes: int) -> None:
        """Charge one inbound round trip carrying ``nbytes``."""
        self._received.inc(nbytes)
        self._trips.inc()

    @property
    def sent_bytes(self) -> int:
        return self._sent.value

    @property
    def received_bytes(self) -> int:
        return self._received.value

    @property
    def round_trips(self) -> int:
        return self._trips.value

    @property
    def total_bytes(self) -> int:
        """All bytes moved, either direction."""
        return self.sent_bytes + self.received_bytes

    def reset(self) -> None:
        """Zero every counter (this meter's labelled series only)."""
        self._sent.reset()
        self._received.reset()
        self._trips.reset()


#: Default number of lock stripes: enough that 16 dispatcher threads on
#: distinct keys rarely collide, small enough to stay cache-friendly.
DEFAULT_STRIPES = 16

#: Ranged writes remembered per key for :meth:`GlobalStateStore.get_since`.
#: A replica more than this many writes behind is sent the whole value.
WRITE_LOG_DEPTH = 8

#: Bytes charged to the meter for each ``(start, end)`` span descriptor in
#: a delta reply, on top of the payload bytes it describes.
SPAN_DESCRIPTOR_BYTES = 8


def _merge(spans) -> list[tuple[int, int]]:
    """The union of ``[start, end)`` spans, sorted and non-overlapping."""
    out: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


class GlobalStateStore:
    """Thread-safe authoritative store for all state keys in a cluster.

    Per-key operations take only the key's *stripe* lock, so concurrent
    accesses to different keys do not serialise behind one mutex. Values,
    versions, write logs and distributed locks live in store-wide dicts;
    a stripe owns none of them, which is why :meth:`reshard` moves nothing.
    ``keys`` reads the dict atomically under the GIL without stopping
    writers.
    """

    def __init__(self, n_stripes: int = DEFAULT_STRIPES) -> None:
        self._values: dict[str, bytearray] = {}
        #: Per-key monotonic write version, bumped by exactly one on every
        #: mutating operation (under the key's stripe lock). Versions
        #: survive delete/recreate and resharding so a stale replica can
        #: never alias a recreated key's counter. This is what makes the
        #: delta pull safe: a version names one exact value of the key.
        self._versions: dict[str, int] = {}
        #: Per-key write log: the spans of the last ranged writes, newest
        #: last, one entry per version (offsets only, never bytes). The
        #: newest entry belongs to the key's current version, so the log
        #: can answer "what changed since v" for the ``len(log)`` versions
        #: behind it. Anything that is not a same-size ranged write empties
        #: it, and older readers are sent the whole value.
        self._wlog: dict[str, deque] = {}
        self._locks: dict[str, RWLock] = {}
        #: Guards the distributed-lock registry (not the values).
        self._meta = threading.Lock()
        self.reshard(n_stripes)

    def stripe_of(self, key: str) -> int:
        """The index of the stripe ``key`` belongs to."""
        return zlib.crc32(key.encode()) % len(self._stripes)

    def _stripe(self, key: str) -> threading.Lock:
        return self._stripes[self.stripe_of(key)]

    def _bump(self, key: str, spans=None) -> int:
        """Advance ``key``'s write version (stripe lock must be held) and
        log the write: ``spans`` for a ranged write that kept the value's
        size, ``None`` for any other mutation, which empties the log."""
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        log = self._wlog.get(key)
        if spans is None:
            if log:
                log.clear()
        else:
            if log is None:
                log = self._wlog[key] = deque(maxlen=WRITE_LOG_DEPTH)
            log.append(spans)
        return version

    # ------------------------------------------------------------------
    # Value operations
    # ------------------------------------------------------------------
    def set_value(self, key: str, value: bytes | bytearray | memoryview) -> None:
        """Replace (or create) ``key``'s full value."""
        with self._stripe(key):
            self._values[key] = bytearray(value)
            self._bump(key)

    def get_value(self, key: str) -> bytes:
        """The full value of ``key`` (a copy)."""
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                raise StateKeyError(key)
            return bytes(value)

    def get_value_versioned(self, key: str) -> tuple[bytes, int]:
        """``(value, write version)`` captured under one stripe-lock hold:
        the scheduler's warm-set cache keeps a snapshot for as long as
        :meth:`version`, the warm set's *epoch*, still matches."""
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                raise StateKeyError(key)
            return bytes(value), self._versions.get(key, 0)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        """Bytes ``[offset, offset+length)`` of ``key`` (a copy)."""
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                raise StateKeyError(key)
            self._check_range(key, value, offset, length)
            return bytes(value[offset : offset + length])

    def get_ranges_into(
        self, key: str, dests: list[tuple[int, memoryview]]
    ) -> int:
        """Copy ``value[offset : offset+len(view)]`` into each ``(offset,
        view)`` of ``dests``, with no intermediate ``bytes``; returns the
        bytes copied."""
        return self.get_ranges_into_versioned(key, dests)[0]

    def get_ranges_into_versioned(
        self, key: str, dests: list[tuple[int, memoryview]]
    ) -> tuple[int, int, int]:
        """:meth:`get_ranges_into`, additionally returning ``(version,
        value size)`` as of the read. Copy, version, and size are captured
        under one stripe-lock hold, so the triple is exact."""
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                raise StateKeyError(key)
            total = 0
            for offset, view in dests:
                length = len(view)
                self._check_range(key, value, offset, length)
                view[:] = memoryview(value)[offset : offset + length]
                total += length
            return total, self._versions.get(key, 0), len(value)

    def get_since(
        self,
        key: str,
        offset: int,
        length: int,
        since: int,
        view: memoryview,
        extra: list[tuple[int, int]] = (),
    ) -> tuple[list[tuple[int, int]] | None, int, int]:
        """The delta read: bring ``[offset, offset+length)`` of a replica,
        every byte of which equalled the value at version ``since`` or
        later, up to date.

        ``view`` is the replica's whole value. Every span written after
        ``since``, plus the caller's ``extra`` spans (its own unflushed
        writes, which a forced pull overwrites), is clipped to the range
        and copied into it at the same offsets, and ``(spans copied,
        version, size)`` comes back — one stripe-lock hold, so the three
        are exact. When the log no longer reaches back to ``since``, or
        the value's size is not ``len(view)``, nothing is copied and the
        spans are ``None``: the caller needs the bytes themselves.
        """
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                raise StateKeyError(key)
            size, version = len(value), self._versions.get(key, 0)
            log = self._wlog.get(key, ())
            behind = version - since
            if not 0 <= behind <= len(log) or len(view) != size:
                return None, version, size
            if behind == 1 and not extra:
                spans = log[-1]  # one write's spans: merged when logged
            else:
                newer = list(log)[len(log) - behind:]
                spans = _merge(chain.from_iterable((*newer, extra)))
            if length != size:  # the whole value needs no clipping
                end = offset + length
                spans = [
                    (max(start, offset), min(stop, end))
                    for start, stop in spans
                    if start < end and stop > offset
                ]
            source = memoryview(value)
            for start, stop in spans:
                view[start:stop] = source[start:stop]
            return spans, version, size

    def set_range(self, key: str, offset: int, data: bytes) -> None:
        """Overwrite ``[offset, offset+len(data))``, growing if needed."""
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                raise StateKeyError(key)
            size, end = len(value), offset + len(data)
            if end > size:
                value.extend(bytes(end - size))
            memoryview(value)[offset:end] = data  # one copy, not a slice's two
            self._bump(key, None if len(value) != size else [(offset, end)])

    def set_ranges(
        self,
        key: str,
        parts: list[tuple[int, bytes | bytearray | memoryview]],
        truncate_to: int | None = None,
    ) -> int:
        """Apply a batch of ``(offset, data)`` writes in one call.

        Creates the key if missing (unwritten gaps read as zeros) — a push
        of a locally created value must not require a separate create RPC.
        With ``truncate_to`` the value's final length is forced to exactly
        that many bytes (a delta push of a shrunk/grown value carries its
        new logical size). Returns the payload bytes applied.
        """
        return self.set_ranges_versioned(key, parts, truncate_to)[0]

    def set_ranges_versioned(
        self,
        key: str,
        parts: list[tuple[int, bytes | bytearray | memoryview]],
        truncate_to: int | None = None,
    ) -> tuple[int, int]:
        """:meth:`set_ranges`, additionally returning the write version
        this batch produced. Data and version are captured under one
        stripe-lock hold, so the pusher's knowledge is exact: the global
        value at the returned version is *precisely* its pre-image at
        ``version - 1`` with these ranges applied. A batch that leaves the
        value's size as it was is logged for :meth:`get_since`, merged."""
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                value = self._values[key] = bytearray()
            size = len(value)
            top = max((offset + len(data) for offset, data in parts), default=0)
            if top > size:
                value.extend(bytes(top - size))
            total, spans, merged = 0, [], True
            # A bytearray slice store copies its source twice; a view's once.
            with memoryview(value) as target:
                for offset, data in parts:
                    end = offset + len(data)
                    target[offset:end] = data
                    total += end - offset
                    if spans and offset <= spans[-1][1]:
                        merged = False  # out of order, touching or overlapping
                    spans.append((offset, end))
            if truncate_to is not None:
                if truncate_to < len(value):
                    del value[truncate_to:]
                elif truncate_to > len(value):
                    value.extend(b"\x00" * (truncate_to - len(value)))
            if len(value) != size:
                spans = None
            elif not merged:
                spans = _merge(spans)
            return total, self._bump(key, spans)

    def append(self, key: str, data: bytes) -> None:
        """Append ``data`` to ``key`` (created empty if missing)."""
        with self._stripe(key):
            self._values.setdefault(key, bytearray()).extend(data)
            self._bump(key)

    def delete(self, key: str) -> None:
        """Drop the value and its distributed lock. The write-version
        counter is kept (and bumped) so a later recreate cannot alias a
        version number some replica still remembers."""
        with self._stripe(key):
            self._values.pop(key, None)
            self._bump(key)
        with self._meta:
            self._locks.pop(key, None)

    def exists(self, key: str) -> bool:
        """Whether ``key`` has a value."""
        return key in self._values

    def size(self, key: str) -> int:
        """Length of ``key``'s value in bytes."""
        with self._stripe(key):
            value = self._values.get(key)
            if value is None:
                raise StateKeyError(key)
            return len(value)

    def version(self, key: str) -> int:
        """``key``'s current write version (0 if never written)."""
        with self._stripe(key):
            return self._versions.get(key, 0)

    def keys(self) -> list[str]:
        """All keys, sorted (an atomic snapshot)."""
        return sorted(self._values)

    # ------------------------------------------------------------------
    # Partitions: load accounting and resharding
    # ------------------------------------------------------------------
    def stripe_sizes(self) -> list[int]:
        """Bytes stored per stripe."""
        sizes = [0] * len(self._stripes)
        for key, value in list(self._values.items()):
            sizes[self.stripe_of(key)] += len(value)
        return sizes

    def imbalance(self) -> float:
        """max/mean stripe size (1.0 = perfectly even); empty store → 1.0."""
        sizes = self.stripe_sizes()
        total = sum(sizes)
        return max(sizes) * len(sizes) / total if total else 1.0

    def reshard(self, n_stripes: int) -> None:
        """Partition the key space over ``n_stripes`` fresh stripes.

        Stop-the-world: the caller must quiesce concurrent operations (the
        runtime never reshards a live store) — one still waiting on an old
        stripe's lock would no longer exclude its key's new stripe. Only
        the stripe list changes: every value, write version, write log and
        distributed lock stays where it is.
        """
        if n_stripes < 1:
            raise ValueError("need at least one stripe")
        self._stripes = [threading.Lock() for _ in range(n_stripes)]

    # ------------------------------------------------------------------
    @staticmethod
    def _check_range(key: str, value: bytearray, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > len(value):
            raise IndexError(
                f"range [{offset}, {offset + length}) outside value of "
                f"size {len(value)} for key {key!r}"
            )

    # ------------------------------------------------------------------
    # Distributed locks
    # ------------------------------------------------------------------
    def lock_for(self, key: str) -> RWLock:
        """The per-key distributed read/write lock (Tab. 2)."""
        with self._meta:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = RWLock()
            return lock

    # ------------------------------------------------------------------
    # Atomic helpers used by the scheduler's shared-state decisions (§5.1).
    # ------------------------------------------------------------------
    def atomic_update(self, key: str, fn) -> bytes:
        """Atomically apply ``fn(old_value | None) -> bytes`` to a key."""
        with self._stripe(key):
            old = self._values.get(key)
            new = fn(bytes(old) if old is not None else None)
            self._values[key] = bytearray(new)
            self._bump(key)
            return new


class StateClient:
    """A host's metered connection to the global tier.

    All local-tier pull/push traffic flows through one of these, so the
    per-host :class:`TransferMeter` reflects exactly the bytes — and round
    trips — that would cross the network to Redis in the paper's
    deployment. The ranged calls batch an arbitrary gap list into a single
    round trip (Fig. 4's chunked values without a per-chunk RPC tax).
    """

    #: How often a client re-tries an operation that hit a transient
    #: :class:`StateUnavailableError` before letting it propagate, and the
    #: (linearly growing) sleep between tries. Sized so a short stripe
    #: outage window is ridden out inside one logical operation.
    UNAVAILABLE_RETRIES = 25
    UNAVAILABLE_BACKOFF = 0.002

    def __init__(self, store: GlobalStateStore, meter: TransferMeter | None = None):
        self.store = store
        self.meter = meter or TransferMeter()

    def _retry(self, fn, *args):
        """Run a store operation, riding out transient unavailability."""
        for i in range(self.UNAVAILABLE_RETRIES):
            try:
                return fn(*args)
            except StateUnavailableError:
                time.sleep(self.UNAVAILABLE_BACKOFF * (i + 1))
        return fn(*args)  # final try propagates the error

    def pull(self, key: str) -> bytes:
        """Fetch the whole value; one round trip."""
        value = self._retry(self.store.get_value, key)
        self.meter.record_received(len(value))
        return value

    def pull_ranges_into_versioned(
        self, key: str, dests: list[tuple[int, memoryview]]
    ) -> tuple[int, int, int]:
        """Fetch several ranges straight into caller views (e.g. a shared
        region) in ONE round trip, with no intermediate copies, plus the
        ``(version, value size)`` they were read at. The version is what
        the ranges are synced at; the size detects a concurrent resize."""
        total, version, size = self._retry(
            self.store.get_ranges_into_versioned, key, dests
        )
        self.meter.record_received(total)
        return total, version, size

    def pull_since(
        self,
        key: str,
        offset: int,
        length: int,
        since: int,
        view: memoryview,
        extra: list[tuple[int, int]] = (),
    ) -> tuple[int | None, int, int]:
        """:meth:`GlobalStateStore.get_since` in ONE round trip: ``(bytes
        copied, version, size)``. The reply is charged as the bytes copied
        plus a descriptor per span; a reply of ``None`` (the bytes
        themselves are needed) carries no payload."""
        spans, version, size = self._retry(
            self.store.get_since, key, offset, length, since, view, extra
        )
        if spans is None:
            self.meter.record_received(0)
            return None, version, size
        moved = sum(e - s for s, e in spans)
        self.meter.record_received(moved + SPAN_DESCRIPTOR_BYTES * len(spans))
        return moved, version, size

    def push(self, key: str, value: bytes) -> None:
        """Replace the whole value; one round trip."""
        self.meter.record_sent(len(value))
        self._retry(self.store.set_value, key, value)

    def push_ranges_versioned(
        self,
        key: str,
        parts: list[tuple[int, bytes | bytearray | memoryview]],
        truncate_to: int | None = None,
    ) -> tuple[int, int]:
        """Write several ``(offset, data)`` ranges — a delta push's dirty
        spans — in ONE round trip; ``truncate_to`` forces the value's final
        length (size changes travel with the same trip). Returns ``(payload
        bytes, write version)``: the pusher's replica is synced at the
        version when it follows directly on the one it was synced at."""
        self.meter.record_sent(sum(len(d) for _, d in parts))
        return self._retry(self.store.set_ranges_versioned, key, parts, truncate_to)

    def append(self, key: str, data: bytes) -> None:
        """Append to the value; one round trip."""
        self.meter.record_sent(len(data))
        self._retry(self.store.append, key, data)

    def size(self, key: str) -> int:
        """Value size (metadata query, not charged as payload)."""
        return self.store.size(key)

    def exists(self, key: str) -> bool:
        """Whether the key exists in the global tier."""
        return self.store.exists(key)

    def delete(self, key: str) -> None:
        """Remove the key from the global tier."""
        self.store.delete(key)

    def lock_for(self, key: str) -> RWLock:
        """The key's distributed read/write lock."""
        return self.store.lock_for(key)
