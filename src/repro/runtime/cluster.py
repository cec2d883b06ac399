"""The FAASM cluster front door (§5, Fig. 5).

A :class:`FaasmCluster` bundles the shared substrate — global state tier,
object store, function registry, invocation registry, warm sets — with a
set of per-host runtime instances.

**There is one way in.** An external ``dispatch``, a guest's chained
call, the monitor's ``redispatch`` and the ingestion plane's
``dispatch_batch`` all hand their call records to
:meth:`FaasmCluster._place_and_send`, which runs one scheduling pass at
the entry host's local scheduler, records one attempt per call, and puts
one :class:`~repro.runtime.bus.ExecuteBatch` per target host on the bus,
trace contexts included; one of that host's standing workers takes it off
and runs it. External calls are spread round-robin over the local
schedulers, as Knative's default endpoint spreads requests; chained calls
enter at their originating host's.

Every placement is an attempt record: the :class:`~repro.runtime.monitor.
InvocationMonitor` re-queues attempts whose host died (liveness epoch) or
whose message was lost (timeout) with exponential backoff, dead hosts are
evicted from the warm sets so schedulers stop routing to them, and a call
whose retry budget is spent reaches the terminal ``CALL_FAILED`` state
carrying its failure chain. A :class:`~repro.chaos.plan.ChaosPlan` (or
prebuilt engine) passed as ``chaos=`` wraps the bus and the global state
store in the deterministic fault-injection layer this plane is tested with.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from contextlib import ExitStack, nullcontext

from repro.host.filesystem import GlobalObjectStore
from repro.state.kv import GlobalStateStore
from repro.telemetry import ProfileStore, Telemetry, export as telemetry_export

from .bus import ExecuteBatch, MessageBus, Shutdown
from .calls import CallRecord, InvocationRegistry
from .ingest import IngestionConfig, IngestionPlane
from .instance import DEFAULT_CAPACITY, FaasmRuntimeInstance
from .monitor import InvocationMonitor, RetryPolicy
from .registry import FunctionRegistry
from .scheduler import SchedulingDecision, WarmSetRegistry

logger = logging.getLogger(__name__)


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
        reset_between_calls: bool = False,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
        chaos=None,
    ):
        #: Unified telemetry: span tracer + metrics registry. Disabled by
        #: default (the tracing-off path is a no-op fast path); pass
        #: ``Telemetry(enabled=True, sample_rate=...)`` to record traces.
        self.telemetry = telemetry or Telemetry()
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
                metrics=self.telemetry.metrics, engine=self.chaos
            )
        else:
            self.global_state = GlobalStateStore()
            self.bus = MessageBus(metrics=self.telemetry.metrics)
        self.object_store = GlobalObjectStore()
        #: Content-addressed persistence for mined access profiles
        #: (``profiles/<fn>/<digest>.json`` in the object store).
        self.profile_store = ProfileStore(self.object_store)
        self._metrics_endpoint = None
        self._metrics_endpoint_lock = threading.Lock()
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
        self._reset_between_calls = reset_between_calls
        self._host_seq = itertools.count(n_hosts)
        self.instances = [self._boot(f"host-{i}") for i in range(n_hosts)]
        self._by_host = {instance.host: instance for instance in self.instances}
        self._rr = itertools.count()
        #: The ingestion plane (admission control + batched dispatch),
        #: created lazily by :meth:`ingestion` / :meth:`submit`.
        self._ingest: IngestionPlane | None = None
        self._ingest_lock = threading.Lock()
        #: A reactive :class:`~repro.runtime.autoscale.Autoscaler`, when
        #: the caller attached one (``Autoscaler(cluster, ...)``).
        self.autoscaler = None
        #: Every placed call that is not yet known finished: what the
        #: monitor watches and what :meth:`drain` waits for.
        self._inflight: dict[int, CallRecord] = {}
        self._inflight_lock = threading.Lock()
        self.monitor = InvocationMonitor(self, self.retry)
        self.monitor.start()

    def _boot(self, host: str) -> FaasmRuntimeInstance:
        """A new host: its instance, its bus endpoint, its first worker."""
        instance = FaasmRuntimeInstance(
            host, self, capacity=self._capacity,
            reset_between_calls=self._reset_between_calls,
        )
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
        live = [i for i in self.instances if i.alive and not i.draining]
        if not live:
            live = [i for i in self.instances if i.alive]
        if not live:
            raise RuntimeError("no live hosts in the cluster")
        return live[next(self._rr) % len(live)]

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

        One scheduling pass, one registry hold for the attempt records,
        one :class:`ExecuteBatch` per target host. Each call gets its own
        ``span_name`` span — the root of a new trace for an external
        call, a child of the caller's ambient context for a chained one
        (the guest's worker still has it active) — whose wire context
        rides the batch, so the receiving worker's spans become its
        children across hosts. The scheduling pass runs inside those spans
        (for a batch of many, under the last). Returns the decisions, in
        record order.
        """
        tracer, attrs = self.telemetry.tracer, span_attrs or {}
        spans = [
            tracer.trace(
                span_name, host=instance.host, function=function,
                call_id=record.call_id, **attrs,
            )
            for record in records
        ] if tracer.enabled else ()
        with ExitStack() if spans else nullcontext() as stack:
            for sp in spans:
                stack.enter_context(sp)
            decisions = instance.scheduler.schedule_batch(function, len(records))
            hosts = self._by_host
            attempts = self.calls.new_attempts([
                (record, decision.host, hosts[decision.host].epoch)
                for record, decision in zip(records, decisions)
            ])
            with self._inflight_lock:
                for record in records:
                    self._inflight[record.call_id] = record
            by_host: dict[str, list[int]] = {}
            for index, attempt in enumerate(attempts):
                by_host.setdefault(attempt.host, []).append(index)
            for sp, decision in zip(spans, decisions):
                sp.set_attr("decision", decision.reason)
                sp.set_attr("target", decision.host)
            for host, indices in by_host.items():
                # Work that left this host for a peer — via the warm set,
                # a page-resident placement or a cold spread.
                shared = host != instance.host
                batch = ExecuteBatch(
                    function,
                    tuple([
                        (records[i].call_id, attempts[i].number)
                        for i in indices
                    ]),
                    origin=instance.host,
                    shared=shared,
                    traces=tuple([spans[i].wire() for i in indices])
                    if spans else None,
                    pooled=pooled,
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
                self._ingest.start()
            elif config is not None:
                raise RuntimeError("ingestion plane already configured")
            return self._ingest

    def submit(
        self,
        function: str,
        input_data: bytes = b"",
        tenant: str = "default",
    ) -> tuple[int | None, str]:
        """The async front door: admit (or defer/shed) a call without
        blocking on placement. Returns ``(call_id, "admitted")`` on
        admission, ``(None, "deferred"|"shed")`` on backpressure."""
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
            chain = [a.reason for a in record.attempts if a.reason]
            chain.append("no live hosts to retry on")
            self.calls.fail_call(record.call_id, chain)
            self.telemetry.metrics.counter("call.failed").inc()
            self.forget_inflight(record.call_id)
            return
        attrs = {"attempt": len(record.attempts)}
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
        instance = self.instance_for(host)
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
        return [
            i.host for i in self.instances if i.alive and not i.draining
        ]

    # ------------------------------------------------------------------
    # Elasticity (the autoscaler's grow/shrink primitives)
    # ------------------------------------------------------------------
    def add_host(self, count: int = 1) -> list[str]:
        """Grow the cluster by ``count`` hosts. Dead hosts are revived
        first (their bus endpoint and identity already exist); genuinely
        new hosts get fresh names. Returns the hosts brought up."""
        added: list[str] = []
        for _ in range(count):
            dead = next(
                (i for i in self.instances if not i.alive), None
            )
            if dead is not None:
                dead.draining = False
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
            self.telemetry.metrics.counter("host.scaled_up").inc(len(added))
        return added

    def retire_host(self, host: str, timeout: float = 10.0) -> bool:
        """Shrink: gracefully retire ``host``. The host stops receiving
        new placements (``draining``), is evicted from the warm sets, and
        once its queue and workers are idle it is taken down through the
        death path — so any straggler the drain raced is re-queued by the
        monitor, never stranded. Returns False when the host is not
        retirable (unknown, already down, or the last live host)."""
        instance = self._by_host.get(host)
        if instance is None or not instance.alive:
            return False
        live = [
            i for i in self.instances if i.alive and not i.draining
        ]
        if len(live) <= 1 or instance not in live:
            return False
        instance.draining = True
        self.warm_sets.evict_host(host)
        instance.reclaim_idle(0)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and (
            self.bus.pending(host)
            or instance.pool_backlog()
            or instance.executing()
        ):
            time.sleep(0.005)
        # kill() ends the liveness epoch: anything the drain wait raced
        # is written off by the monitor and re-queued elsewhere.
        instance.kill()
        self.telemetry.metrics.counter("host.scaled_down").inc()
        return True

    def host_liveness(self, host: str) -> tuple[bool, int]:
        """(alive, epoch) for the invocation monitor's death detection."""
        instance = self._by_host.get(host)
        if instance is None:
            return False, -1
        return instance.alive, instance.epoch

    def on_host_death(self, instance: FaasmRuntimeInstance) -> None:
        """A host died: evict it from every warm set so schedulers stop
        routing there; its in-flight calls are re-queued by the monitor."""
        evicted = self.warm_sets.evict_host(instance.host)
        self.telemetry.metrics.counter("host.evicted").inc()
        logger.warning(
            "host %s declared dead; evicted from %d warm sets",
            instance.host,
            evicted,
        )

    # ------------------------------------------------------------------
    # In-flight tracking (for the invocation monitor)
    # ------------------------------------------------------------------
    def inflight_records(self) -> list[CallRecord]:
        with self._inflight_lock:
            return list(self._inflight.values())

    def forget_inflight(self, call_id: int) -> None:
        with self._inflight_lock:
            self._inflight.pop(call_id, None)

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
    #: — includes the ISA-level counters (SIMD / atomics / guest threads)
    #: so the vector-and-threads workload is visible in one place.
    AGGREGATE_SERIES = (
        "instance.calls_executed",
        "instance.cold_starts",
        "instance.warm_hits",
        "instance.workers",
        "instance.workers_born",
        "state.bytes_sent",
        "state.bytes_received",
        "state.round_trips",
        "simd.ops",
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

    # ------------------------------------------------------------------
    # Access profiles (trace miner) and the OpenMetrics endpoint
    # ------------------------------------------------------------------
    @property
    def profiles(self):
        """The trace miner (``Telemetry(mine_profiles=True)``), or None."""
        return self.telemetry.profiles

    def persist_profiles(self) -> dict[str, str]:
        """Write every mined access profile to the object store; returns
        ``{function: content digest}``."""
        miner = self.telemetry.profiles
        if miner is None:
            return {}
        return {
            function: self.profile_store.save(profile)
            for function, profile in sorted(miner.profiles().items())
        }

    def load_profile(self, function: str, digest: str | None = None):
        """A persisted access profile from the object store (the
        round-trip path ``repro profiles`` reads)."""
        return self.profile_store.load(function, digest)

    def metrics_endpoint(self):
        """The OpenMetrics scrape endpoint on the bus (created on first
        use; shut down with the cluster)."""
        from repro.telemetry.openmetrics import MetricsEndpoint

        with self._metrics_endpoint_lock:
            if self._metrics_endpoint is None:
                self._metrics_endpoint = MetricsEndpoint(
                    self.bus, self.telemetry.metrics
                )
            return self._metrics_endpoint

    def scrape_metrics(self, timeout: float = 5.0) -> str:
        """One OpenMetrics exposition, fetched over the message bus the
        way a Prometheus scrape would arrive."""
        return self.metrics_endpoint().scrape(timeout=timeout)

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
        for record in self.inflight_records():
            remaining = deadline - time.monotonic()
            if not record.done.wait(max(0.0, remaining)):
                stragglers.append(record.call_id)
        if stragglers and raise_on_stragglers:
            raise DrainTimeout(
                f"drain timed out after {timeout}s with {len(stragglers)} "
                f"calls still running; straggler call ids: {stragglers}",
                stragglers,
            )
        return stragglers

    def shutdown(self) -> None:
        """Stop every host's workers and the monitor (idempotent)."""
        if self.autoscaler is not None:
            self.autoscaler.stop()
        with self._ingest_lock:
            if self._ingest is not None:
                self._ingest.stop()
        self.monitor.stop()
        with self._metrics_endpoint_lock:
            if self._metrics_endpoint is not None:
                self._metrics_endpoint.shutdown()
                self._metrics_endpoint = None
        for instance in self.instances:
            try:
                self.bus.send(instance.host, Shutdown())
            except KeyError:
                pass  # endpoint already deregistered
        for instance in self.instances:
            instance.join_dispatcher()
