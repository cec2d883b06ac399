"""The message bus (Fig. 1/Fig. 5).

Runtime instances communicate through per-host queues: the bus carries
function-execution requests (including work shared between hosts by the
scheduler, Fig. 5's "sharing queue") and shutdown signals. Each instance
keeps one elastic set of standing workers on its queue and the worker that
takes a message off it runs it (DESIGN.md §11), so a queue may have several
receivers blocked in :meth:`MessageBus.receive`; every message enqueued
wakes one of them.

One message shape carries work: :class:`ExecuteBatch` — the calls of one
function that one scheduling pass placed on one host, a single chained
call or a few hundred admitted ones. The cluster sends it with
:meth:`MessageBus.send`; the ingestion dispatcher flushes each host's
batches with :meth:`MessageBus.send_many` under a **single** lock
acquisition (at high arrival rates the per-message lock/notify tax is most
of the dispatch hot path). The receiving worker expands a batch into one
:class:`ExecuteCall` per carried call.

Delivery counters live in a :class:`~repro.telemetry.metrics.MetricsRegistry`
(``BusStats`` is a view over them), every carried call can bring its
**trace context** (:data:`repro.telemetry.trace.Wire`) so the receiving
host's spans attach to the sender's trace, and queue depths are exported as
``bus.queue_depth{host=}`` gauges — lazily, by
:meth:`MessageBus.update_queue_gauges`, keeping the hot path gauge-free.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.telemetry import MetricsRegistry


class ExecuteBatch(NamedTuple):
    """Run a batch of placement-decided calls of one function.

    The one work message (DESIGN.md §11): ``items`` is a tuple of
    ``(call_id, attempt_number)`` pairs, all for ``function``, all placed
    on the receiving host by one scheduling pass. Every item runs the full
    attempt-claim protocol, so batching changes how many lock acquisitions
    the calls cost, never their exactly-once semantics; chaos faults are
    decided per item (identity-hashed on the call id), so a call is
    dropped/duplicated/delayed identically however it was grouped.
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
        self._sent.inc()
        if isinstance(message, ExecuteBatch):
            n = len(message.items)
            self._batches.inc()
            self._batched_calls.inc(n)
            if message.shared:
                self._shared.inc()
                # What the receiving instance reads as ``shared_received``.
                self._metrics.counter("bus.shared_calls", host=host).inc(n)

    def __repr__(self) -> str:  # keeps the old dataclass-ish repr
        return f"BusStats(sent={self.sent}, shared={self.shared})"


class _HostQueue:
    """One host's FIFO: a deque under a condition variable.

    :meth:`put_many` appends a whole batch and wakes a consumer per item
    under **one** acquisition (``queue.Queue`` would take one per ``put``).
    """

    __slots__ = ("_items", "_cv")

    def __init__(self) -> None:
        self._items: deque = deque()
        self._cv = threading.Condition(threading.Lock())

    def put(self, item) -> None:
        with self._cv:
            self._items.append(item)
            self._cv.notify()

    def put_many(self, items) -> None:
        with self._cv:
            self._items.extend(items)
            self._cv.notify(len(items))

    def get(self, timeout: float | None = None):
        """Blocking pop; returns None on timeout."""
        with self._cv:
            while not self._items:
                if not self._cv.wait(timeout):
                    return None
            return self._items.popleft()

    def qsize(self) -> int:
        with self._cv:
            return len(self._items)


class MessageBus:
    """Per-host FIFO queues with simple delivery accounting."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._queues: dict[str, _HostQueue] = {}
        self._mutex = threading.Lock()
        # `is None`, not truthiness: an empty registry has len() == 0.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = BusStats(self.metrics)

    def register(self, host: str) -> None:
        with self._mutex:
            if host in self._queues:
                raise ValueError(f"host {host!r} already registered")
            self._queues[host] = _HostQueue()

    def deregister(self, host: str) -> None:
        """Remove a host's queue and its undelivered messages; later
        sends/receives for the host raise ``KeyError``."""
        with self._mutex:
            if host not in self._queues:
                raise KeyError(f"unknown bus endpoint {host!r}")
            del self._queues[host]

    def _queue_for(self, host: str) -> _HostQueue:
        # Deliberately *never* auto-creates a queue: a typo'd or
        # deregistered host name must surface as KeyError, not as a
        # silently-buffered message no dispatcher will ever drain.
        with self._mutex:
            q = self._queues.get(host)
        if q is None:
            raise KeyError(f"unknown bus endpoint {host!r}")
        return q

    def send(self, host: str, message) -> None:
        self._queue_for(host).put(message)
        self.stats.record(host, message)

    def send_many(self, host: str, messages) -> None:
        """Enqueue a batch for ``host`` under ONE queue-lock acquisition:
        an ingestion round that produced several messages for one host
        (an :class:`ExecuteBatch` per function) pays for one."""
        messages = list(messages)
        if not messages:
            return
        self._queue_for(host).put_many(messages)
        for message in messages:
            self.stats.record(host, message)

    def receive(self, host: str, timeout: float | None = None):
        """Blocking receive; returns None on timeout."""
        return self._queue_for(host).get(timeout=timeout)

    def pending(self, host: str) -> int:
        return self._queue_for(host).qsize()

    def total_pending(self) -> int:
        """Undelivered messages across every host queue (a snapshot)."""
        with self._mutex:
            queues = list(self._queues.values())
        return sum(q.qsize() for q in queues)

    def update_queue_gauges(self) -> dict[str, int]:
        """Refresh the ``bus.queue_depth{host=}`` gauges and return the
        depths. Called lazily (autoscaler scan, ``repro top`` frames) so
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
