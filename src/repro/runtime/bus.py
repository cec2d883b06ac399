"""The message bus (Fig. 1/Fig. 5).

Faaslets and runtime instances communicate through per-host queues: the
bus carries function-execution requests (including work shared between
hosts by the scheduler, Fig. 5's "sharing queue") and shutdown signals.
Each runtime instance runs a dispatcher that drains its queue and executes
calls on worker threads.

One message shape carries work: :class:`ExecuteBatch` — the calls of one
function that one scheduling pass placed on one host, whether that is a
single chained call or a few hundred admitted ones. The cluster sends it
with :meth:`MessageBus.send`; the ingestion dispatcher, which places
several function groups per round, flushes each host's batches with
:meth:`MessageBus.send_many` under a **single** lock acquisition. At high
arrival rates the per-message lock/notify tax is what the dispatch hot
path spends most of its time on, so batching here is a large part of the
ingestion speedup. The receiving host expands a batch into one
:class:`ExecuteCall` per carried call.

Telemetry rides the bus two ways: delivery counters live in a
:class:`~repro.telemetry.metrics.MetricsRegistry` (``BusStats`` is a thin
view over them), and every carried call can bring its **trace context**
(:data:`repro.telemetry.trace.Wire`) so the receiving host's spans attach
to the sender's trace — the in-process analogue of trace headers on a
cross-host RPC. Per-host queue depths are exported as
``bus.queue_depth{host=}`` gauges by :meth:`MessageBus.update_queue_gauges`
(refreshed lazily by the autoscaler, ``repro top`` and metric snapshots
rather than on every send, keeping the hot path gauge-free).
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
    attempt-claim protocol, so batching changes *how many lock
    acquisitions* the calls cost, never their exactly-once semantics.
    Chaos fault decisions are taken per item (identity-hashed on the call
    id), so a call is dropped/duplicated/delayed identically however the
    cluster happened to group it.
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
    #: The execution vehicle on the receiving host. Work the ingestion
    #: plane admitted runs on the host's bounded worker pool; directly
    #: dispatched, chained and retried calls each get their own thread, so
    #: a parent blocked in ``await_call`` can never starve its callee.
    pooled: bool = False

    def only(self, indices) -> "ExecuteBatch":
        """The sub-batch carrying just the items at ``indices`` (how the
        chaos bus carves faulted calls out of a batch)."""
        return self._replace(
            items=tuple(self.items[i] for i in indices),
            traces=self.traces and tuple(self.traces[i] for i in indices),
        )


class ExecuteCall(NamedTuple):
    """One carried call of an :class:`ExecuteBatch`, as the receiving host
    expands it for its executor. Never sent over the bus itself."""

    call_id: int
    #: Which dispatch of the call this delivery is.
    attempt: int
    shared: bool = False
    trace: tuple | None = None


@dataclass(frozen=True)
class Shutdown:
    """Stop the receiving dispatcher."""


class BusStats:
    """Delivery counters — a view over the bus's metrics registry, kept
    so existing ``bus.stats.sent`` consumers are unaffected. A batch
    counts once as a message and once per carried call."""

    def __init__(self, metrics: MetricsRegistry):
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

    def record(self, message) -> None:
        self._sent.inc()
        if isinstance(message, ExecuteBatch):
            self._batches.inc()
            self._batched_calls.inc(len(message.items))
            if message.shared:
                self._shared.inc()

    def __repr__(self) -> str:  # keeps the old dataclass-ish repr
        return f"BusStats(sent={self.sent}, shared={self.shared})"


class _HostQueue:
    """One host's FIFO: a deque under a condition variable.

    ``queue.Queue`` acquires its mutex once per ``put``; this queue adds
    :meth:`put_many`, which appends a whole batch and wakes the consumer
    under **one** acquisition — the primitive ``MessageBus.send_many``
    needs for the ingestion hot path.
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
            self._cv.notify()

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
        """Remove a host's queue (undelivered messages are discarded);
        subsequent sends/receives for the host raise ``KeyError``."""
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
        self.stats.record(message)

    def send_many(self, host: str, messages) -> None:
        """Enqueue a batch for ``host`` under ONE queue-lock acquisition.

        The ingestion dispatcher's path: a scheduling round that produced
        several messages for the same host (one :class:`ExecuteBatch` per
        function) pays one lock/notify instead of one per message.
        """
        messages = list(messages)
        if not messages:
            return
        self._queue_for(host).put_many(messages)
        for message in messages:
            self.stats.record(message)

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
        """Refresh the ``bus.queue_depth{host=}`` gauges from the current
        queue sizes and return the depths. Called lazily (autoscaler scan,
        ``repro top`` frames, metric snapshots) so the send path never
        pays for gauge upkeep."""
        with self._mutex:
            queues = dict(self._queues)
        depths = {host: q.qsize() for host, q in queues.items()}
        for host, depth in depths.items():
            self.metrics.gauge("bus.queue_depth", host=host).set(depth)
        return depths

    def hosts(self) -> list[str]:
        with self._mutex:
            return sorted(self._queues)
