"""The FAASM cluster front door (§5, Fig. 5).

A :class:`FaasmCluster` bundles the shared substrate — global state tier,
object store, function registry, invocation registry, warm sets — with a
set of per-host runtime instances.

**There is one way in.** An external ``dispatch``, a guest's chained
call, the monitor's ``redispatch`` and the ingestion plane's
``dispatch_batch`` all hand their call records to
:meth:`FaasmCluster._place_and_send`: one scheduling pass at the entry
host's local scheduler, one attempt per call, one
:class:`~repro.runtime.bus.ExecuteBatch` per target host, trace contexts
included. External calls are spread round-robin over the local schedulers,
as Knative's default endpoint spreads requests; chained calls enter at
their originating host's.

On the cluster's one :class:`~repro.runtime.monitor.Timer` thread, asleep
until a deadline is due, the monitor's scan re-queues attempts whose host
died or whose message was lost, with backoff, up to the terminal
``CALL_FAILED``; an autoscaler's tick and a chaos bus's delayed deliveries
run on it too. A :class:`~repro.chaos.plan.ChaosPlan` passed as ``chaos=``
wraps the bus and the global state store in the deterministic
fault-injection layer this plane is tested with.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from contextlib import ExitStack
from operator import attrgetter

from repro.host.filesystem import GlobalObjectStore
from repro.state.kv import GlobalStateStore
from repro.telemetry import Telemetry, export as telemetry_export

from .bus import ExecuteBatch, MessageBus, Shutdown
from .calls import CallRecord, InvocationRegistry
from .ingest import IngestionConfig, IngestionPlane
from .instance import DEFAULT_CAPACITY, FaasmRuntimeInstance
from .monitor import InvocationMonitor, RetryPolicy, Timer
from .registry import FunctionRegistry
from .scheduler import SchedulingDecision, WarmSetRegistry

logger = logging.getLogger(__name__)


_HOST, _CALL_ID, _EPOCH = attrgetter("host"), attrgetter("call_id"), attrgetter("epoch")


class DrainTimeout(TimeoutError):
    """``drain`` gave up with calls still in flight; carries their ids."""

    def __init__(self, message: str, stragglers: list[int]):
        super().__init__(message)
        self.stragglers = stragglers


class FaasmCluster:
    """A multi-host FAASM deployment in one process.

    "Hosts" are separate runtime instances with their own local state tiers
    and Faaslet pools sharing one global tier — the same topology as the
    paper's Kubernetes deployment, minus physical machines.
    """

    def __init__(
        self,
        n_hosts: int = 2,
        capacity: int = DEFAULT_CAPACITY,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
        chaos=None,
    ):
        #: Unified telemetry: span tracer + metrics registry. Disabled by
        #: default (the tracing-off path is a no-op fast path); pass
        #: ``Telemetry(enabled=True, sample_rate=...)`` to record traces.
        self.telemetry = telemetry or Telemetry()
        #: The one timer thread: scans, ticks and chaos deliveries run on it.
        self.timer = Timer(self.telemetry.metrics)
        #: Deterministic fault injection: a ChaosPlan/ChaosEngine, or None.
        self.chaos = None
        if chaos is not None:
            from repro.chaos.bus import ChaosMessageBus
            from repro.chaos.engine import ChaosEngine
            from repro.chaos.state import ChaosStateStore

            self.chaos = (
                chaos
                if isinstance(chaos, ChaosEngine)
                else ChaosEngine(chaos, metrics=self.telemetry.metrics)
            )
            self.global_state = ChaosStateStore(self.chaos)
            self.bus = ChaosMessageBus(
                self.timer, metrics=self.telemetry.metrics, engine=self.chaos
            )
        else:
            self.global_state = GlobalStateStore()
            self.bus = MessageBus(metrics=self.telemetry.metrics)
        self.object_store = GlobalObjectStore()
        self.registry = FunctionRegistry(
            self.object_store, metrics=self.telemetry.metrics
        )
        self.calls = InvocationRegistry()
        self.warm_sets = WarmSetRegistry(
            self.global_state, metrics=self.telemetry.metrics
        )
        #: Shared endpoint registry for Faaslet virtual NICs.
        self.endpoints: dict = {}
        self.retry = retry_policy if retry_policy is not None else RetryPolicy()
        self._capacity = capacity
        self._host_seq = itertools.count(n_hosts)
        self.instances = [self._boot(f"host-{i}") for i in range(n_hosts)]
        self._by_host = {instance.host: instance for instance in self.instances}
        self._rr = itertools.count()
        #: The hosts external calls enter through, round-robin (see
        #: :meth:`membership_changed`).
        self._entries: tuple[FaasmRuntimeInstance, ...] = ()
        self.membership_changed()
        #: The ingestion plane (admission control + batched dispatch),
        #: created lazily by :meth:`ingestion` / :meth:`submit`.
        self._ingest: IngestionPlane | None = None
        self._ingest_lock = threading.Lock()
        self.monitor = InvocationMonitor(self, self.retry)
        self.monitor.request_scan(time.monotonic() + self.retry.attempt_timeout)
        self.timer.start()

    def _boot(self, host: str) -> FaasmRuntimeInstance:
        """A new host: its instance, its bus endpoint, its first worker."""
        instance = FaasmRuntimeInstance(host, self, capacity=self._capacity)
        self.bus.register(host)
        instance.start_dispatcher()
        return instance

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def upload(self, name: str, source, **kwargs):
        """Upload a wasm guest function (see :meth:`FunctionRegistry.upload`)."""
        return self.registry.upload(name, source, **kwargs)

    def register_python(self, name: str, fn, **kwargs):
        return self.registry.register_python(name, fn, **kwargs)

    def pre_warm(self, function: str, per_host: int = 1) -> int:
        """Provision warm Faaslets for ``function`` on every host (scale-up
        ahead of anticipated traffic); returns the total added."""
        return sum(
            i.pre_warm(function, per_host) for i in self.instances if i.alive
        )

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def dispatch(
        self,
        function: str,
        input_data: bytes = b"",
        origin: str | None = None,
        idempotency_key: str | None = None,
    ) -> int:
        """Asynchronously invoke ``function``; returns the call id.

        ``origin`` is the host a chained call was made on (None for an
        external call). A repeated ``idempotency_key`` returns the
        original call instead of invoking again.
        """
        if not self.registry.exists(function):
            raise KeyError(f"unknown function {function!r}")
        record, created = self.calls.create_or_get(
            function, input_data, idempotency_key
        )
        if created:
            self._place_and_send(function, [record], self._entry_instance(origin))
        return record.call_id

    def dispatch_batch(
        self,
        function: str,
        records: list[CallRecord],
        origin: str | None = None,
        collect: dict | None = None,
    ) -> list[str]:
        """Place and send already-created records of one function — the
        ingestion plane's entry, whose work travels ``pooled``. With
        ``collect`` (a ``host -> [messages]`` dict) the messages are
        accumulated there instead of sent, so a caller with several
        function groups can flush each host's with one
        :meth:`MessageBus.send_many`. Returns the target host per record."""
        if not records:
            return []
        decisions = self._place_and_send(
            function, records, self._entry_instance(origin),
            pooled=True, collect=collect,
        )
        return [decision.host for decision in decisions]

    def _entry_instance(self, origin: str | None) -> FaasmRuntimeInstance:
        """The (live, non-draining) scheduler a call enters through."""
        if origin is not None:
            instance = self._by_host.get(origin)
            if instance is not None and instance.alive:
                return instance
        entries = self._entries
        if not entries:
            raise RuntimeError("no live hosts in the cluster")
        instance = entries[next(self._rr) % len(entries)]
        if not instance.alive:  # died since the tuple was read
            self.membership_changed()
            return self._entry_instance(None)
        return instance

    def membership_changed(self) -> None:
        """Re-read the hosts external calls enter through (live and not
        draining, else live): called wherever ``alive`` or ``draining`` moves."""
        live = tuple(i for i in self.instances if i.alive and not i.draining)
        self._entries = live or tuple(i for i in self.instances if i.alive)

    def _place_and_send(
        self,
        function: str,
        records: list[CallRecord],
        instance: FaasmRuntimeInstance,
        span_name: str = "call.dispatch",
        span_attrs: dict | None = None,
        pooled: bool = False,
        collect: dict | None = None,
    ) -> list[SchedulingDecision]:
        """The one road onto the bus: place ``records`` (all of
        ``function``) from ``instance``'s scheduler and send them.

        With tracing on, each call gets its own ``span_name`` span — a new
        trace's root for an external call, a child of the caller's context
        for a chained one — whose wire context rides the batch, and the
        scheduling pass runs inside them. Returns the decisions, in record
        order. Unpooled, ``records`` is one call, run by its receiving worker."""
        if not pooled and len(records) > 1:
            raise ValueError(f"an unpooled batch carries one call, not {len(records)}")
        tracer = self.telemetry.tracer
        if not tracer.enabled:
            return self._send_placed(function, records, instance, (), pooled, collect)
        attrs = span_attrs or {}
        spans = [
            tracer.trace(
                span_name, host=instance.host, function=function,
                call_id=record.call_id, **attrs,
            )
            for record in records
        ]
        with ExitStack() as stack:
            for sp in spans:
                stack.enter_context(sp)
            decisions = self._send_placed(
                function, records, instance, spans, pooled, collect
            )
            for sp, decision in zip(spans, decisions):
                sp.set_attr("decision", decision.reason)
                sp.set_attr("target", decision.host)
        return decisions

    def _send_placed(self, function, records, instance, spans, pooled, collect):
        """:meth:`_place_and_send` under its spans (one per record, or
        none): place, open the attempts, send one batch per target host."""
        decisions = instance.scheduler.schedule_batch(function, len(records))
        targets = list(map(_HOST, decisions))
        # Target host -> its liveness epoch, in first-placed order.
        epochs = dict(zip(targets, map(_EPOCH, map(self._by_host.__getitem__, targets))))
        numbers = self.calls.new_attempts(
            list(zip(records, targets, map(epochs.__getitem__, targets)))
        )
        items = list(zip(map(_CALL_ID, records), numbers))
        wires = [sp.wire() for sp in spans] if spans else None
        origin = instance.host
        for host in epochs:
            mine, traces = items, wires
            if len(epochs) > 1:
                picked = [i for i, target in enumerate(targets) if target == host]
                mine, traces = [items[i] for i in picked], wires and [wires[i] for i in picked]
            # ``shared``: the work left the entry host. Positional: a
            # namedtuple built by keyword costs twice as much.
            batch = ExecuteBatch(
                function, tuple(mine), origin, host != origin,
                traces and tuple(traces), pooled,
            )
            if collect is not None:
                collect.setdefault(host, []).append(batch)
            else:
                self.bus.send(host, batch)
        return decisions

    def ingestion(self, config: IngestionConfig | None = None) -> IngestionPlane:
        """The cluster's ingestion plane (created on first use). Passing a
        config after the plane exists raises — admission limits are not
        hot-swappable."""
        with self._ingest_lock:
            if self._ingest is None:
                self._ingest = IngestionPlane(
                    self, config if config is not None else IngestionConfig()
                )
            elif config is not None:
                raise RuntimeError("ingestion plane already configured")
            return self._ingest

    def submit(
        self,
        function: str,
        input_data: bytes = b"",
        tenant: str = "default",
    ) -> tuple[int | None, str]:
        """The open-loop front door: admit (or defer/shed) a call, then
        place the admission backlog unless someone else is (ingest.py).
        Returns ``(call_id, "admitted")`` on admission, ``(None,
        "deferred"|"shed")`` on backpressure."""
        return self.ingestion().submit(function, input_data, tenant=tenant)

    def submit_many(
        self,
        function: str,
        inputs: list[bytes],
        tenant: str = "default",
    ) -> list[tuple[int | None, str]]:
        """Bulk :meth:`submit`: admit a whole batch under one registry
        lock and one admission lock. One ``(call_id, outcome)`` per
        input."""
        return self.ingestion().submit_many(function, inputs, tenant=tenant)

    def ingestion_stats(self) -> dict:
        plane = self._ingest
        return plane.stats() if plane is not None else {}

    def redispatch(self, record: CallRecord, reason: str = "") -> None:
        """Re-queue a call whose previous attempt was lost (the invocation
        monitor's retry path); places with current warm-set/liveness data."""
        try:
            instance = self._entry_instance(None)
        except RuntimeError:
            self.calls.fail_call(record.call_id, "no live hosts to retry on")
            self.telemetry.metrics.counter("call.failed").inc()
            return
        attrs = {"attempt": record.attempt + 1}
        if reason:
            attrs["reason"] = reason
        if self.chaos is not None:
            # Attribute the retry to the injected fault(s) that cost the
            # previous attempt, so traces explain *why*.
            faults = self.chaos.faults_for(record.call_id)
            if faults:
                attrs["fault"] = ",".join(faults)
        self._place_and_send(
            record.function, [record], instance, "call.retry", attrs
        )
        self.telemetry.metrics.counter("call.retries").inc()

    def invoke(self, function: str, input_data: bytes = b"", timeout: float = 60.0) -> tuple[int, bytes]:
        """Synchronously invoke ``function``; returns (exit code, output)."""
        call_id = self.dispatch(function, input_data)
        code = self.calls.wait(call_id, timeout)
        return code, self.calls.output(call_id)

    # ------------------------------------------------------------------
    # Host lookup / capacity / liveness
    # ------------------------------------------------------------------
    def instance_for(self, host: str) -> FaasmRuntimeInstance:
        instance = self._by_host.get(host)
        if instance is None:
            raise KeyError(f"unknown host {host!r}")
        return instance

    def peer_capacity(self, host: str) -> int:
        # On the placement road: one lookup, no ``instance_for`` call.
        instance = self._by_host.get(host)
        if instance is None:
            raise KeyError(f"unknown host {host!r}")
        return instance.free_capacity() if instance.alive else 0

    def placement_ok(self, host: str) -> bool:
        """Whether schedulers may place *new* work on ``host`` — alive and
        not draining. (Liveness for the monitor is :meth:`host_liveness`: a
        draining host still finishes its in-flight attempts.)"""
        instance = self._by_host.get(host)
        return instance is not None and instance.alive and not instance.draining

    def live_hosts(self) -> list[str]:
        """Hosts new work may be placed on (the batch scheduler's spread
        universe)."""
        return [i.host for i in self.instances if i.alive and not i.draining]

    # ------------------------------------------------------------------
    # Elasticity (the autoscaler's grow/shrink primitives)
    # ------------------------------------------------------------------
    def add_host(self, count: int = 1) -> list[str]:
        """Grow the cluster by ``count`` hosts. Dead hosts are revived
        first (their bus endpoint and identity already exist); genuinely
        new hosts get fresh names. Returns the hosts brought up."""
        added: list[str] = []
        for _ in range(count):
            dead = next((i for i in self.instances if not i.alive), None)
            if dead is not None:
                dead.restart()
                added.append(dead.host)
                continue
            host = f"host-{next(self._host_seq)}"
            instance = self._boot(host)
            # Copy-then-rebind so lock-free readers of the instance list
            # never see a half-built membership.
            self.instances = self.instances + [instance]
            self._by_host = {**self._by_host, host: instance}
            added.append(host)
        if added:
            self.membership_changed()
            self.telemetry.metrics.counter("host.scaled_up").inc(len(added))
        return added

    def retire_host(self, host: str, timeout: float = 10.0) -> bool:
        """Shrink: :meth:`begin_retire`, wait (up to ``timeout``) for every
        call placed on ``host`` to finish, then take it down through the
        death path — so any straggler the drain raced is re-queued by the
        monitor, never stranded. Returns False when the host is not
        retirable (unknown, already down, draining, or the last live
        host)."""
        if not self.begin_retire(host):
            return False
        deadline = time.monotonic() + timeout
        for record in self.calls.open_calls():
            if record.host == host:
                record.done.wait(deadline - time.monotonic())
        self._by_host[host].kill()
        self.telemetry.metrics.counter("host.scaled_down").inc()
        return True

    def begin_retire(self, host: str) -> bool:
        """Stop placing on ``host``, evict it from the warm sets and
        reclaim its idle Faaslets; whoever called this kills it later."""
        live = self.live_hosts()
        if len(live) <= 1 or host not in live:
            return False
        instance = self._by_host[host]
        instance.draining = True
        self.membership_changed()
        self.warm_sets.evict_host(host)
        instance.reclaim_idle(0)
        return True

    def host_liveness(self, host: str) -> tuple[bool, int]:
        """(alive, epoch) for the invocation monitor's death detection."""
        instance = self._by_host.get(host)
        if instance is None:
            return False, -1
        return instance.alive, instance.epoch

    def on_host_death(self, instance: FaasmRuntimeInstance) -> None:
        """A host died: evict it from every warm set so schedulers stop
        routing there, and have the monitor scan now, which re-queues its
        in-flight calls."""
        self.membership_changed()
        evicted = self.warm_sets.evict_host(instance.host)
        self.telemetry.metrics.counter("host.evicted").inc()
        logger.warning("host %s declared dead; evicted from %d warm sets",
                       instance.host, evicted)
        self.monitor.request_scan(time.monotonic())

    # ------------------------------------------------------------------
    # Cluster-wide accounting
    # ------------------------------------------------------------------
    def total_network_bytes(self) -> int:
        """Bytes exchanged with the global tier across all hosts."""
        return sum(i.state_client.meter.total_bytes for i in self.instances)

    def total_cold_starts(self) -> int:
        return sum(i.metrics.cold_starts for i in self.instances)

    def snapshot_stats(self) -> dict:
        """The snapshot distribution plane's view of the cluster: per-host
        PageStore residency/dedup/transfer stats plus the repository's."""
        return {
            "repository": self.registry.snapshots.stats(),
            "hosts": {i.host: i.snapshots.stats() for i in self.instances},
        }

    #: Headline series summed across label sets in :meth:`metrics_snapshot`
    #: — includes the ISA-level counters (atomics / guest threads) so the
    #: threads workload is visible in one place.
    AGGREGATE_SERIES = (
        "instance.calls_executed",
        "instance.cold_starts",
        "instance.warm_hits",
        "instance.workers",
        "instance.workers_born",
        "state.bytes_sent",
        "state.bytes_received",
        "state.round_trips",
        "atomic.ops",
        "thread.spawned",
        "atomic.waits",
        "call.retries",
        "call.failed",
        "ingest.admitted",
        "ingest.deferred",
        "ingest.shed",
        "bus.batched_calls",
        "sched.cache_hits",
        "sched.cache_misses",
    )

    def metrics_snapshot(self) -> dict:
        """Cluster-aggregated metrics dump: every per-host series (bus,
        state transfers, instance lifecycle, span latencies) plus
        cluster-wide sums for the headline counters."""
        snapshot = self.telemetry.metrics.snapshot()
        snapshot["aggregates"] = {
            name: self.telemetry.metrics.aggregate(name)
            for name in self.AGGREGATE_SERIES
        }
        return snapshot

    def trace_spans(self):
        """All spans recorded by this cluster's tracer."""
        return self.telemetry.spans()

    def export_chrome_trace(self, path: str | None = None) -> dict:
        """The cluster's spans as Chrome trace-event JSON (optionally
        written to ``path``), with the metrics snapshot in ``otherData``."""
        doc = telemetry_export.to_chrome_trace(
            self.trace_spans(), metrics=self.metrics_snapshot()
        )
        if path is not None:
            import json

            with open(path, "w") as f:
                json.dump(doc, f)
        return doc

    def drain(self, timeout: float = 30.0, raise_on_stragglers: bool = True) -> list[int]:
        """Wait for all dispatched calls to finish (tests/benchmarks),
        with ``timeout`` as an overall deadline. Calls unfinished when it
        expires are *stragglers*: their ids are returned, and — unless
        ``raise_on_stragglers=False`` — a :class:`DrainTimeout` naming them
        is raised, so a stuck call is never mistaken for a clean drain."""
        deadline = time.monotonic() + timeout
        stragglers = []
        # Newest first: once the call placed last is done, the rest are
        # likely found done instead of each waking this thread.
        for record in reversed(self.calls.open_calls()):
            if not record.done.wait(deadline - time.monotonic()):
                stragglers.append(record.call_id)
        if stragglers and raise_on_stragglers:
            raise DrainTimeout(
                f"drain timed out after {timeout}s with {len(stragglers)} "
                f"calls still running; straggler call ids: {stragglers}",
                stragglers,
            )
        return stragglers

    def shutdown(self) -> None:
        """Stop every host's workers and the timer thread, with an
        attached autoscaler's ticks (idempotent)."""
        self.timer.stop()
        for instance in self.instances:
            try:
                self.bus.send(instance.host, Shutdown())
            except KeyError:
                pass  # endpoint already deregistered
        for instance in self.instances:
            instance.join_dispatcher()
