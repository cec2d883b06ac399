"""The open-loop ingestion plane (DESIGN.md §11).

:meth:`FaasmCluster.dispatch` places its call on the caller's thread, a
batch of one. At "millions of users" arrival rates one hot tenant must not
starve the rest, and the per-call bookkeeping has to amortise over batches,
so this module queues calls in front of the same road:

* :class:`AdmissionController` — bounded per-tenant FIFO queues under a
  **stride-scheduling weighted-fair queue**: a tenant's *pass* advances by
  ``served / weight`` per service, every pick serves the backlogged tenant
  with the smallest pass, one batch at a time, so a backlogged tenant never
  exceeds its weight share by more than one batch. A tenant re-entering the
  backlog catches up to virtual time (idling earns no credit). A full queue
  sheds or defers per the tenant's policy; neither creates a call record.

* :class:`IngestionPlane` — the front door, with no thread of its own.
  Admission is *flat-combining*: whoever holds the serving lock places every
  batch admission holds, grouped per function, through
  :meth:`FaasmCluster.dispatch_batch` and one
  :meth:`MessageBus.send_many` per host. A submitter serves once it has
  admitted, unless the bus holds a message whose taker will serve first.
  **No admitted call strands**: every lock holder re-checks the backlog
  after letting go, and ``drain`` waits for the lock, then serves.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

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

    def __post_init__(self):
        where = f"tenant {self.name!r}:"
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"{where} weight {self.weight!r} is not finite and > 0")
        if self.queue_limit < 0:
            raise ValueError(f"{where} queue_limit {self.queue_limit} is negative")
        if self.on_full not in ("defer", "shed"):
            raise ValueError(f"{where} on_full {self.on_full!r} is not defer/shed")


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

    def __post_init__(self):
        # Refuse bad defaults now, not at an unknown tenant's first offer.
        TenantSpec("<default>", self.default_weight, self.default_queue_limit,
                   self.default_on_full)


class _TenantState:
    __slots__ = ("spec", "queue", "pass_value", "served")

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.queue: deque = deque()
        self.pass_value = 0.0
        self.served = 0


class AdmissionController:
    """Bounded per-tenant queues under stride-scheduled weighted fairness.
    Thread-safe: one lock guards every queue and pass."""

    def __init__(self, config: IngestionConfig, metrics=None):
        self.config = config
        self._metrics = metrics
        self._tenants: dict[str, _TenantState] = {}
        self._lock = threading.Lock()
        #: WFQ virtual time: the pass of the last tenant served, which
        #: re-backlogged tenants catch up to (idling earns no credit).
        self._vtime = 0.0
        for spec in config.tenants:
            self._tenants[spec.name] = _TenantState(spec)

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            config = self.config
            state = self._tenants[tenant] = _TenantState(TenantSpec(
                tenant, config.default_weight, config.default_queue_limit,
                config.default_on_full,
            ))
        return state

    def offer(self, tenant: str, make_item) -> tuple[str, object | None]:
        """Admit one submission: the one-element form of
        :meth:`offer_many`. ``make_item()`` is called only on admission.
        Returns ``(outcome, item)`` with outcome one of "admitted",
        "deferred", "shed"."""
        items, _, outcome = self.offer_many(tenant, 1, lambda take: [make_item()])
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
        with self._lock:
            state = self._state(tenant)
            room = max(0, state.spec.queue_limit - len(state.queue))
            take = min(room, count)
            rejected = count - take
            outcome = "shed" if state.spec.on_full == "shed" else "deferred"
            items = make_items(take) if take else []
            if items and not state.queue:
                # Re-entering the backlog: catch the pass up to virtual
                # time so time spent idle earns no service credit.
                state.pass_value = max(state.pass_value, self._vtime)
            state.queue.extend(items)
            if self._metrics is not None:
                if take:
                    self._metrics.counter("ingest.admitted", tenant=tenant).inc(take)
                if rejected:
                    self._metrics.counter("ingest." + outcome, tenant=tenant).inc(rejected)
            return items, rejected, outcome

    def next_batch(self, max_items: int) -> tuple[str | None, list]:
        """Serve up to ``max_items`` from the minimum-pass backlogged
        tenant; the tenant's pass advances by ``served / weight``. Returns
        ``(tenant, items)``, or ``(None, [])`` when nothing is queued."""
        with self._lock:
            backlogged = [
                (state.pass_value, name, state)
                for name, state in self._tenants.items()
                if state.queue
            ]
            if not backlogged:
                return None, []
            _, name, state = min(backlogged)
            self._vtime = state.pass_value
            take = state.queue.popleft
            items = [take() for _ in range(min(max_items, len(state.queue)))]
            state.pass_value += len(items) / state.spec.weight
            state.served += len(items)
        return name, items

    def backlog(self) -> int:
        # Lock-free: ``serve`` asks on every message a worker takes, and
        # must not queue behind a submitter building records under ``_lock``.
        return sum([len(state.queue) for state in list(self._tenants.values())])

    def stats(self) -> dict:
        """Per-tenant queue depth / served counts (counters live in the
        metrics registry under ``ingest.*{tenant=}``)."""
        with self._lock:
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


class _AdmittedItem(NamedTuple):
    function: str
    record: object
    tenant: str = "default"
    enqueued_at: float = 0.0


#: ``_AdmittedItem`` from a 4-tuple without a Python-level ``__new__``.
_admitted = partial(tuple.__new__, _AdmittedItem)
_FUNCTION, _RECORD = itemgetter(0), itemgetter(1)


class IngestionPlane:
    """One cluster's front door: admission and its placement (module doc)."""

    def __init__(self, cluster, config: IngestionConfig | None = None):
        self.cluster = cluster
        self.config = config if config is not None else IngestionConfig()
        self.admission = AdmissionController(
            self.config, metrics=cluster.telemetry.metrics
        )
        #: Held by whoever is placing admitted batches.
        self._serving = threading.Lock()
        #: Recently-admitted records, for sojourn percentiles.
        self._recent: deque = deque(maxlen=65536)
        self._admit_times: deque = deque(maxlen=16384)
        self._recent_lock = threading.Lock()

    # ------------------------------------------------------------------
    def submit(
        self,
        function: str,
        input_data: bytes = b"",
        tenant: str = "default",
    ) -> tuple[int | None, str]:
        """Admit a call, then serve (the one-element form of
        :meth:`submit_many`). ``(call_id, "admitted")``, or ``(None,
        "deferred"|"shed")`` under backpressure."""
        return self.submit_many(function, [input_data], tenant)[0]

    def submit_many(
        self,
        function: str,
        inputs: list[bytes],
        tenant: str = "default",
    ) -> list[tuple[int | None, str]]:
        """Bulk :meth:`submit`: one registry lock for all the call
        records, one admission lock for the whole batch, then
        :meth:`serve` unless a worker is about to (module doc). Returns one
        ``(call_id, outcome)`` per input; on a full queue the tail is
        rejected (deferred/shed)."""
        if not self.cluster.registry.exists(function):
            raise KeyError(f"unknown function {function!r}")
        inputs = list(inputs)

        def make_items(take: int):
            now = time.monotonic()
            records = self.cluster.calls.create_many(function, inputs[:take])
            return list(map(_admitted, zip(
                repeat(function), records, repeat(tenant), repeat(now)
            )))

        items, rejected, outcome = self.admission.offer_many(
            tenant, len(inputs), make_items
        )
        records = list(map(_RECORD, items))
        if items:
            with self._recent_lock:
                self._recent.extend(records)
                self._admit_times.extend(repeat(items[0].enqueued_at, len(items)))
            if not self.cluster.bus.total_pending():
                self.serve()
        results = [(record.call_id, "admitted") for record in records]
        results.extend([(None, outcome)] * rejected)
        return results

    # ------------------------------------------------------------------
    def serve(self, blocking: bool = False) -> None:
        """Place the admission backlog, WFQ's pick first, if this thread
        gets the serving lock (waiting for it when ``blocking``); the
        re-check after letting go keeps a call offered meanwhile placed."""
        while self.admission.backlog() and self._serving.acquire(blocking):
            try:
                while True:
                    _, items = self.admission.next_batch(self.config.batch_size)
                    if not items:
                        break
                    self._dispatch_items(items)
            finally:
                self._serving.release()

    def _dispatch_items(self, items: list) -> None:
        """One dispatch round: group a served batch by function, place
        each group with one batched scheduling decision, flush each target
        host's messages with one ``send_many``."""
        functions = dict.fromkeys(map(_FUNCTION, items))
        if len(functions) == 1:  # the usual round: one function
            groups = {items[0].function: list(map(_RECORD, items))}
        else:
            groups = {function: [] for function in functions}
            for item in items:
                groups[item.function].append(item.record)
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
        """Place what admission still holds — after any batch a submitter
        is placing — then wait for every placed call to finish (via
        :meth:`FaasmCluster.drain`, which raises on stragglers)."""
        deadline = time.monotonic() + timeout
        with self._serving:
            pass
        self.serve(blocking=True)
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
