"""The open-loop ingestion plane (DESIGN.md §11).

:meth:`FaasmCluster.dispatch` places its call — warm-set read, attempt
record, bus send — on the caller's thread, a batch of one. That is the
right shape for chained calls and tests, but at "millions of users"
arrival rates the submitter must never block on placement, one hot tenant
must not starve the rest, and the per-call bookkeeping (a global-tier
round trip, a registry lock, a bus lock, a thread spawn) has to amortise
over batches. This module queues calls in front of the same road so that
it carries many at a time:

* :class:`AdmissionController` — bounded per-tenant FIFO queues under a
  **stride-scheduling weighted-fair queue**: each tenant carries a *pass*
  value that advances by ``served / weight`` whenever it is served, and
  the dispatcher always serves the backlogged tenant with the smallest
  pass, one batch at a time. The classic stride argument bounds unfairness
  at one service quantum: a continuously-backlogged tenant's share never
  exceeds ``weight_i / Σweights`` of total service by more than one batch
  (the property the hypothesis suite checks). A tenant re-entering the
  backlog has its pass caught up to the current virtual time, so idling
  earns no credit. A full queue sheds or defers per the tenant's policy —
  *deferred* is backpressure (resubmit later), *shed* is a drop; neither
  creates a call record, so no admitted call is ever stranded.

* :class:`IngestionPlane` — the async front door plus the batch
  dispatcher thread: admitted calls are grouped per function, handed to
  :meth:`FaasmCluster.dispatch_batch` (one scheduling pass, one registry
  hold, one :class:`~repro.runtime.bus.ExecuteBatch` per target host) and
  flushed with one :meth:`MessageBus.send_many` per host per round; the
  receiving hosts run them on the workers they already have. It is the same
  road every other call takes, so tracing, exactly-once semantics and the
  chaos-fault surface are unchanged — only the per-call overhead is gone.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.telemetry.stats import percentile

#: Sliding window over which :meth:`IngestionPlane.stats` reports the
#: arrival rate.
_RATE_WINDOW_S = 5.0


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's admission contract."""

    name: str
    #: Fair-share weight: service is proportional to weight across
    #: backlogged tenants (within one batch, see the stride bound).
    weight: float = 1.0
    #: Bounded backlog: offers beyond this are shed or deferred.
    queue_limit: int = 10_000
    #: "defer" (backpressure — the caller may resubmit) or "shed" (drop).
    on_full: str = "defer"


@dataclass(frozen=True)
class IngestionConfig:
    """Ingestion-plane tuning knobs."""

    #: Service quantum: calls served from one tenant per WFQ pick, and the
    #: unit of the fairness bound.
    batch_size: int = 64
    #: Pre-declared tenants; unknown tenants are auto-created with the
    #: defaults below.
    tenants: tuple[TenantSpec, ...] = ()
    default_weight: float = 1.0
    default_queue_limit: int = 10_000
    default_on_full: str = "defer"
    #: Dispatcher wait granularity when the backlog is empty.
    idle_wait_s: float = 0.02


class _TenantState:
    __slots__ = ("spec", "queue", "pass_value", "served")

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.queue: deque = deque()
        self.pass_value = 0.0
        self.served = 0


class AdmissionController:
    """Bounded per-tenant queues under stride-scheduled weighted fairness.

    Thread-safe; the condition variable doubles as the dispatcher's wake
    signal, so an offer on an idle plane wakes the batch dispatcher
    immediately instead of waiting out its idle poll.
    """

    def __init__(self, config: IngestionConfig, metrics=None):
        self.config = config
        self._metrics = metrics
        self._tenants: dict[str, _TenantState] = {}
        self._cv = threading.Condition(threading.Lock())
        #: WFQ virtual time: the pass of the last tenant served, which
        #: re-backlogged tenants catch up to (idling earns no credit).
        self._vtime = 0.0
        #: Size of the batch the last :meth:`next_batch` handed out, until
        #: the next call asks for more: calls that are in neither a queue
        #: nor (yet) on the bus, which :meth:`IngestionPlane.drain` must
        #: not mistake for an empty plane.
        self.in_service = 0
        for spec in config.tenants:
            self._tenants[spec.name] = _TenantState(spec)

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(
                TenantSpec(
                    tenant,
                    weight=self.config.default_weight,
                    queue_limit=self.config.default_queue_limit,
                    on_full=self.config.default_on_full,
                )
            )
            self._tenants[tenant] = state
        return state

    def offer(self, tenant: str, make_item) -> tuple[str, object | None]:
        """Admit one submission: the one-element form of
        :meth:`offer_many`. ``make_item()`` is called only on admission.
        Returns ``(outcome, item)`` with outcome one of "admitted",
        "deferred", "shed"."""
        items, _, outcome = self.offer_many(
            tenant, 1, lambda take: [make_item()]
        )
        return ("admitted", items[0]) if items else (outcome, None)

    def offer_many(
        self, tenant: str, count: int, make_items
    ) -> tuple[list, int, str]:
        """Admit up to ``count`` submissions for ``tenant`` under one lock
        acquisition; a full queue rejects the tail.

        ``make_items(k)`` builds the ``k`` admitted items — called under
        the admission lock and only for the admitted prefix, so a
        shed/deferred submission creates no call record (nothing to
        strand). Returns ``(admitted_items, n_rejected,
        rejection_outcome)``."""
        with self._cv:
            state = self._state(tenant)
            room = max(0, state.spec.queue_limit - len(state.queue))
            take = min(room, count)
            rejected = count - take
            outcome = (
                "shed" if state.spec.on_full == "shed" else "deferred"
            )
            items = make_items(take) if take else []
            if items and not state.queue:
                # Re-entering the backlog: catch the pass up to virtual
                # time so time spent idle earns no service credit.
                state.pass_value = max(state.pass_value, self._vtime)
            state.queue.extend(items)
            if self._metrics is not None:
                if take:
                    self._metrics.counter(
                        "ingest.admitted", tenant=tenant
                    ).inc(take)
                if rejected:
                    self._metrics.counter(
                        "ingest." + outcome, tenant=tenant
                    ).inc(rejected)
            if items:
                self._cv.notify()
            return items, rejected, outcome

    def next_batch(
        self, max_items: int, timeout: float | None = None
    ) -> tuple[str | None, list]:
        """Serve up to ``max_items`` from the minimum-pass backlogged
        tenant (blocking up to ``timeout`` for backlog); the tenant's pass
        advances by ``served / weight``. Returns ``(tenant, items)`` or
        ``(None, [])`` on timeout."""
        with self._cv:
            self.in_service = 0
            if timeout is not None:
                deadline = time.monotonic() + timeout
                while not any(s.queue for s in self._tenants.values()):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cv.wait(remaining):
                        if not any(s.queue for s in self._tenants.values()):
                            return None, []
                        break
            backlogged = [
                (state.pass_value, name, state)
                for name, state in self._tenants.items()
                if state.queue
            ]
            if not backlogged:
                return None, []
            _, name, state = min(backlogged)
            self._vtime = state.pass_value
            items = []
            while state.queue and len(items) < max_items:
                items.append(state.queue.popleft())
            state.pass_value += len(items) / max(state.spec.weight, 1e-9)
            state.served += len(items)
            self.in_service = len(items)
        return name, items

    def backlog(self) -> int:
        with self._cv:
            return sum(len(s.queue) for s in self._tenants.values())

    def stats(self) -> dict:
        """Per-tenant queue depth / served counts (counters live in the
        metrics registry under ``ingest.*{tenant=}``)."""
        with self._cv:
            return {
                name: {
                    "queued": len(state.queue),
                    "served": state.served,
                    "weight": state.spec.weight,
                    "queue_limit": state.spec.queue_limit,
                    "on_full": state.spec.on_full,
                }
                for name, state in sorted(self._tenants.items())
            }


@dataclass
class _AdmittedItem:
    function: str
    record: object
    tenant: str = "default"
    enqueued_at: float = field(default=0.0)


class IngestionPlane:
    """The async front door and batch dispatcher for one cluster."""

    def __init__(self, cluster, config: IngestionConfig | None = None):
        self.cluster = cluster
        self.config = config if config is not None else IngestionConfig()
        self.admission = AdmissionController(
            self.config, metrics=cluster.telemetry.metrics
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Recently-admitted records, for sojourn percentiles.
        self._recent: deque = deque(maxlen=65536)
        self._admit_times: deque = deque(maxlen=16384)
        self._recent_lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="ingest-dispatch"
        )
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        # Wake the dispatcher out of its admission wait.
        with self.admission._cv:
            self.admission._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # ------------------------------------------------------------------
    def submit(
        self,
        function: str,
        input_data: bytes = b"",
        tenant: str = "default",
    ) -> tuple[int | None, str]:
        """Admit a call without blocking on placement (the one-element
        form of :meth:`submit_many`); the batch dispatcher places it
        later. ``(call_id, "admitted")``, or ``(None, "deferred"|"shed")``
        under backpressure."""
        return self.submit_many(function, [input_data], tenant)[0]

    def submit_many(
        self,
        function: str,
        inputs: list[bytes],
        tenant: str = "default",
    ) -> list[tuple[int | None, str]]:
        """Bulk :meth:`submit`: one registry lock for all the call
        records, one admission lock for the whole batch — the open-loop
        generator's fast path. Returns one ``(call_id, outcome)`` per
        input; on a full queue the tail is rejected (deferred/shed)."""
        if not self.cluster.registry.exists(function):
            raise KeyError(f"unknown function {function!r}")
        inputs = list(inputs)

        def make_items(take: int):
            now = time.monotonic()
            records = self.cluster.calls.create_many(
                function, inputs[:take]
            )
            return [
                _AdmittedItem(function, record, tenant, enqueued_at=now)
                for record in records
            ]

        items, rejected, outcome = self.admission.offer_many(
            tenant, len(inputs), make_items
        )
        if items:
            with self._recent_lock:
                self._recent.extend(item.record for item in items)
                self._admit_times.extend(
                    item.enqueued_at for item in items
                )
        results = [
            (item.record.call_id, "admitted") for item in items
        ]
        results.extend([(None, outcome)] * rejected)
        return results

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            tenant, items = self.admission.next_batch(
                self.config.batch_size, timeout=self.config.idle_wait_s
            )
            if not items:
                continue
            self._dispatch_items(items)
        # Final sweep so a stop() racing late submissions strands nothing.
        while True:
            tenant, items = self.admission.next_batch(
                self.config.batch_size, timeout=None
            )
            if not items:
                break
            self._dispatch_items(items)

    def _dispatch_items(self, items: list) -> None:
        """One dispatch round: group a served batch by function, place
        each group with one batched scheduling decision, flush each target
        host's messages with one ``send_many``."""
        groups: dict[str, list] = {}
        for item in items:
            groups.setdefault(item.function, []).append(item.record)
        pending: dict[str, list] = {}
        for function, records in groups.items():
            self.cluster.dispatch_batch(function, records, collect=pending)
        for host, messages in pending.items():
            try:
                self.cluster.bus.send_many(host, messages)
            except KeyError:
                # Host deregistered between placement and flush (cluster
                # shutdown): the attempts stay SENT and the monitor's
                # liveness path re-queues them.
                pass

    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> None:
        """Wait for the admission backlog, the bus, and the hosts' backlogs
        to go empty, then for every dispatched call to finish (via
        :meth:`FaasmCluster.drain`, which raises on stragglers)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if (
                self.admission.backlog() == 0
                and self.admission.in_service == 0
                and self.cluster.bus.total_pending() == 0
                and all(
                    i.pool_backlog() == 0 for i in self.cluster.instances
                )
            ):
                break
            time.sleep(0.005)
        self.cluster.drain(timeout=max(0.1, deadline - time.monotonic()))

    def sojourn_percentiles(self) -> dict:
        """p50/p99 sojourn (submit -> finish) over recently-admitted,
        finished calls, in seconds."""
        with self._recent_lock:
            records = list(self._recent)
        latencies = [
            r.latency for r in records if r.done.is_set() and r.finished_at
        ]
        return {
            "p50": percentile(latencies, 50),
            "p99": percentile(latencies, 99),
            "n": len(latencies),
        }

    def arrival_rate(self) -> float:
        """Admitted calls/sec over the trailing window."""
        now = time.monotonic()
        with self._recent_lock:
            times = list(self._admit_times)
        recent = [t for t in times if now - t <= _RATE_WINDOW_S]
        if not recent:
            return 0.0
        window = max(now - recent[0], 1e-6)
        return len(recent) / window

    def stats(self) -> dict:
        """The ingestion row: arrival rate, queue depths, sojourn, and
        per-tenant admission accounting."""
        depths = self.cluster.bus.update_queue_gauges()
        pools = sum(i.pool_backlog() for i in self.cluster.instances)
        sojourn = self.sojourn_percentiles()
        return {
            "arrival_rate": self.arrival_rate(),
            "admission_backlog": self.admission.backlog(),
            "bus_pending": sum(depths.values()),
            "pool_backlog": pools,
            "sojourn_p50_s": sojourn["p50"],
            "sojourn_p99_s": sojourn["p99"],
            "tenants": self.admission.stats(),
        }
