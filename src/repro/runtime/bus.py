"""The message bus (Fig. 1/Fig. 5).

Runtime instances communicate through per-host queues carrying work
(including work shared between hosts, Fig. 5's "sharing queue") and
shutdown signals. Each host's standing workers block in
:meth:`MessageBus.receive`; every message enqueued wakes one of them.

One message shape carries work: :class:`ExecuteBatch`, the calls of one
function one scheduling pass placed on one host. The cluster sends it with
:meth:`MessageBus.send`, the ingestion plane with
:meth:`MessageBus.send_many`. A host's queue is a
:class:`queue.SimpleQueue`: a put and a get are each one C call, so the hop
to a blocked worker costs one lock hand-off (DESIGN.md §11). Delivery
counters are metrics-registry series behind one lock (``BusStats``), every
carried call may bring its trace context, and queue depths are exported as
``bus.queue_depth{host=}`` gauges only when asked.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import share_lock


class ExecuteBatch(NamedTuple):
    """Run a batch of placement-decided calls of one function.

    The one work message (DESIGN.md §11): ``items`` is a tuple of
    ``(call_id, attempt_number)`` pairs, all for ``function``, placed on
    the receiving host by one scheduling pass. Every item runs the full
    attempt-claim protocol, and chaos faults are decided per item, so
    grouping never changes a call's exactly-once semantics or its faults.
    """

    function: str
    #: ((call_id, attempt_number), ...)
    items: tuple
    #: Host that made the scheduling decision (for metrics/debugging).
    origin: str | None = None
    #: Whether this batch crossed hosts (work sharing, Fig. 5).
    shared: bool = False
    #: Propagated trace contexts, one per item: (trace_id, parent span id,
    #: sampled, sender perf_counter timestamp); None when tracing is off.
    traces: tuple | None = None
    #: Work the ingestion plane admitted: it runs on at most ``max(2,
    #: capacity)`` of the receiving host's workers at once and a batch
    #: summons at most one. Dispatched, chained and retried calls (False)
    #: never wait for a worker another call occupies — one is born if none
    #: is idle — so a parent in ``await_call`` cannot starve its callee.
    pooled: bool = False

    def only(self, indices) -> "ExecuteBatch":
        """The sub-batch carrying just the items at ``indices`` (how the
        chaos bus carves faulted calls out of a batch)."""
        return self._replace(
            items=tuple(self.items[i] for i in indices),
            traces=self.traces and tuple(self.traces[i] for i in indices),
        )


class ExecuteCall(NamedTuple):
    """One carried call of an :class:`ExecuteBatch`, as the receiving
    worker expands it. Never sent over the bus itself."""

    call_id: int
    #: Which dispatch of the call this delivery is.
    attempt: int
    shared: bool = False
    trace: tuple | None = None


@dataclass(frozen=True)
class Shutdown:
    """Stop the receiving host's workers."""


class BusStats:
    """Delivery counters — a view over the bus's metrics registry. A
    batch counts once as a message and once per carried call."""

    def __init__(self, metrics: MetricsRegistry):
        self._metrics = metrics
        self._sent = metrics.counter("bus.messages_sent")
        self._shared = metrics.counter("bus.messages_shared")
        self._batches = metrics.counter("bus.batches_sent")
        self._batched_calls = metrics.counter("bus.batched_calls")
        #: One lock over every bus counter, so :meth:`record` counts a
        #: message with one acquire.
        self._lock = share_lock(
            threading.Lock(), self._sent, self._shared, self._batches,
            self._batched_calls,
        )
        #: ``bus.shared_calls{host=}`` — what the receiving instance reads
        #: as ``shared_received`` — bound once per host by :meth:`bind`.
        self._shared_calls: dict = {}

    def bind(self, host: str) -> None:
        counter = self._metrics.counter("bus.shared_calls", host=host)
        share_lock(self._lock, counter)
        self._shared_calls[host] = counter

    @property
    def sent(self) -> int:
        return self._sent.value

    @property
    def shared(self) -> int:
        return self._shared.value

    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def batched_calls(self) -> int:
        return self._batched_calls.value

    def record(self, host: str, message) -> None:
        shared = self._shared_calls[host]  # a KeyError before the lock
        self._lock.acquire()
        self._sent._value += 1
        if isinstance(message, ExecuteBatch):
            n = len(message.items)
            self._batches._value += 1
            self._batched_calls._value += n
            if message.shared:
                self._shared._value += 1
                shared._value += n
        self._lock.release()

    def __repr__(self) -> str:  # keeps the old dataclass-ish repr
        return f"BusStats(sent={self.sent}, shared={self.shared})"


class MessageBus:
    """Per-host FIFO queues with simple delivery accounting."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._queues: dict[str, queue.SimpleQueue] = {}
        self._mutex = threading.Lock()
        # `is None`, not truthiness: an empty registry has len() == 0.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = BusStats(self.metrics)

    def register(self, host: str) -> None:
        with self._mutex:
            if host in self._queues:
                raise ValueError(f"host {host!r} already registered")
            self._queues[host] = queue.SimpleQueue()
            self.stats.bind(host)

    def deregister(self, host: str) -> None:
        """Remove a host's queue and its undelivered messages; later
        sends/receives for the host raise ``KeyError``."""
        with self._mutex:
            if host not in self._queues:
                raise KeyError(f"unknown bus endpoint {host!r}")
            del self._queues[host]

    def _queue_for(self, host: str) -> queue.SimpleQueue:
        # Never auto-creates a queue: a typo'd or deregistered host must
        # surface as KeyError. Lock-free: ``_mutex`` orders the writers.
        q = self._queues.get(host)
        if q is None:
            raise KeyError(f"unknown bus endpoint {host!r}")
        return q

    def send(self, host: str, message) -> None:
        # A queue is always truthy: the lookup falls back to the raise.
        (self._queues.get(host) or self._queue_for(host)).put(message)
        self.stats.record(host, message)

    def send_many(self, host: str, messages) -> None:
        """Enqueue several messages for ``host`` in order (an ingestion
        round's :class:`ExecuteBatch` per function): one endpoint lookup,
        then a C-level put per message, each waking one blocked receiver."""
        messages = list(messages)
        if not messages:
            return
        put = self._queue_for(host).put
        for message in messages:
            put(message)
            self.stats.record(host, message)

    def receive(self, host: str, timeout: float | None = None):
        """Blocking receive; returns None on timeout."""
        try:
            return (self._queues.get(host) or self._queue_for(host)).get(
                timeout=timeout
            )
        except queue.Empty:
            return None

    def pending(self, host: str) -> int:
        return self._queue_for(host).qsize()

    def total_pending(self) -> int:
        """Undelivered messages across every host queue (a snapshot)."""
        # Lock-free like ``_queue_for``: a submitter asks on every submit.
        return sum([q.qsize() for q in list(self._queues.values())])

    def update_queue_gauges(self) -> dict[str, int]:
        """Refresh the ``bus.queue_depth{host=}`` gauges and return the
        depths. Called lazily (autoscaler scan, ingestion stats) so
        the send path never pays for gauge upkeep."""
        with self._mutex:
            queues = dict(self._queues)
        depths = {host: q.qsize() for host, q in queues.items()}
        for host, depth in depths.items():
            self.metrics.gauge("bus.queue_depth", host=host).set(depth)
        return depths

    def hosts(self) -> list[str]:
        with self._mutex:
            return sorted(self._queues)
