"""A FAASM runtime instance: one per host (§5, Fig. 5).

Each instance owns a pool of Faaslets (warm ones are reused across calls),
a local scheduler, the host's local state tier and a metered connection to
the global tier. Calls arrive from the cluster front door or from other
instances (work sharing); chained calls made by executing functions re-enter
the cluster through the instance's environment.
"""

from __future__ import annotations

import logging
import threading
import time

from repro.faaslet import (
    CpuCgroup,
    Faaslet,
    FunctionDefinition,
    HostSnapshotCache,
    NetworkNamespace,
)
from repro.host.environment import FaasletEnvironment
from repro.host.filesystem import VirtualFilesystem
from repro.state.api import StateAPI
from repro.state.kv import StateClient, StateUnavailableError, TransferMeter
from repro.state.local import LocalTier
from repro.telemetry import MetricsRegistry, context_from_wire, span

from .bus import ExecuteCall, Shutdown, _HostQueue
from .calls import CallRecord
from .pyguest import PythonCallContext
from .registry import PythonFunctionDefinition
from .scheduler import LocalScheduler

logger = logging.getLogger(__name__)

#: Default number of concurrent calls a host accepts (capacity for the
#: scheduler's shared-state decisions).
DEFAULT_CAPACITY = 8


class HostCrashed(RuntimeError):
    """An injected host failure: the host this code runs on just died.

    Raised by a chaos engine's phase hooks after it has killed the host;
    executor and dispatcher threads let it unwind — whatever they were
    doing is lost with the host, and the invocation monitor re-queues the
    affected calls from their attempt records.
    """


class RuntimeEnvironment(FaasletEnvironment):
    """The environment wiring Faaslets on one host into the cluster."""

    def __init__(self, instance: "FaasmRuntimeInstance"):
        self.instance = instance
        self.state = instance.state_api
        self.filesystem = instance.filesystem
        self.netns = instance.netns_template
        #: Cluster metrics registry, so per-Faaslet layers (guest-thread
        #: runtime) count into the cluster-wide series.
        self.metrics = instance.cluster.telemetry.metrics

    def chain_call(self, name: str, input_data: bytes) -> int:
        return self.instance.cluster.dispatch(name, input_data, origin=self.instance.host)

    def await_call(self, call_id: int) -> int:
        with span("call.await", call_id=call_id):
            return self.instance.cluster.calls.wait(call_id)

    def get_call_output(self, call_id: int) -> bytes:
        return self.instance.cluster.calls.output(call_id)


class InstanceMetrics:
    """Per-host lifecycle counters — a view over the cluster's metrics
    registry (labelled ``host=``), keeping the historic attribute API so
    ``instance.metrics.cold_starts`` consumers are unaffected while the
    same series aggregate cluster-wide through the registry."""

    def __init__(self, metrics: MetricsRegistry | None = None, host: str = ""):
        # `is None`, not truthiness: an empty registry has len() == 0.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._calls = metrics.counter("instance.calls_executed", host=host)
        self._cold = metrics.counter("instance.cold_starts", host=host)
        self._warm = metrics.counter("instance.warm_hits", host=host)
        self._init = metrics.histogram("instance.init_time", host=host)

    def record_call(self) -> None:
        self._calls.inc()

    def record_cold_start(self, init_time: float) -> None:
        self._cold.inc()
        self._init.observe(init_time)

    def record_warm_hit(self) -> None:
        self._warm.inc()

    @property
    def calls_executed(self) -> int:
        return self._calls.value

    @property
    def cold_starts(self) -> int:
        return self._cold.value

    @property
    def warm_hits(self) -> int:
        return self._warm.value

    @property
    def init_time_total(self) -> float:
        return self._init.sum

    @property
    def cold_ratio(self) -> float:
        if not self.calls_executed:
            return 0.0
        return self.cold_starts / self.calls_executed


class FaasmRuntimeInstance:
    """One host's runtime: Faaslet pool + local scheduler + state tiers."""

    def __init__(
        self,
        host: str,
        cluster,
        capacity: int = DEFAULT_CAPACITY,
        reset_between_calls: bool = False,
    ):
        self.host = host
        self.cluster = cluster
        self.capacity = capacity
        self.reset_between_calls = reset_between_calls

        meter = TransferMeter(cluster.telemetry.metrics, host=host)
        self.state_client = StateClient(cluster.global_state, meter)
        self.local_tier = LocalTier(host, self.state_client)
        self.state_api = StateAPI(self.local_tier)
        self.filesystem = VirtualFilesystem(cluster.object_store, user=host)
        self.netns_template = NetworkNamespace(f"host-{host}", endpoints=cluster.endpoints)
        self.env = RuntimeEnvironment(self)
        self.cgroup = CpuCgroup(f"cg-{host}")

        self.scheduler = LocalScheduler(
            host,
            cluster.warm_sets,
            capacity_fn=self.free_capacity,
            peer_capacity_fn=cluster.peer_capacity,
            # Placement-eligibility, not raw liveness: a draining host
            # finishes its work but receives no new placements.
            live_fn=getattr(cluster, "placement_ok", None)
            or getattr(cluster, "host_alive", None),
            peers_fn=getattr(cluster, "live_hosts", None),
        )

        #: The content-addressed snapshot client: this host's PageStore
        #: plus the delta-pull protocol against the cluster repository.
        #: Materialised snapshots advertise page residency to the shared
        #: scheduler state (the locality signal for placement).
        self.snapshots = HostSnapshotCache(
            host,
            cluster.registry.snapshots,
            metrics=cluster.telemetry.metrics,
            on_residency=cluster.warm_sets.advertise_residency,
        )

        self._warm: dict[str, list[Faaslet]] = {}
        self._mutex = threading.Lock()
        self._executing = 0
        self.metrics = InstanceMetrics(cluster.telemetry.metrics, host=host)
        self._dispatcher: threading.Thread | None = None
        #: Bounded executor pool for ``pooled`` batches (created lazily on
        #: the first one): admitted calls run on these workers instead of
        #: a thread per call, which is most of the per-call overhead the
        #: ingestion plane removes.
        self._pool_threads: list[threading.Thread] = []
        self._pool_queue = None
        self._pool_lock = threading.Lock()
        #: Graceful retirement: a draining host finishes its in-flight
        #: work but receives no new placements (the autoscaler's shrink
        #: path); distinct from ``alive`` so the invocation monitor does
        #: not write its in-flight attempts off.
        self.draining = False
        #: Calls received over the bus that were shared from another host.
        self.shared_received = 0
        #: Liveness: a dead host executes nothing and completes nothing.
        #: The epoch advances on every death, so attempt records dispatched
        #: to a previous life are detectable as lost (Fig. 5's independent
        #: host-failure assumption).
        self.alive = True
        self.epoch = 0
        #: Fault-injection hooks (a ChaosEngine), or None in production.
        self.chaos = getattr(cluster, "chaos", None)

    # ------------------------------------------------------------------
    # Message-bus dispatcher (Fig. 5)
    # ------------------------------------------------------------------
    def start_dispatcher(self) -> None:
        """Start the thread that drains this host's bus queue."""
        if self._dispatcher is not None:
            return
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name=f"bus-{self.host}"
        )
        self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            message = self.cluster.bus.receive(self.host)
            if isinstance(message, Shutdown):
                self._stop_pool()
                return
            # Dead hosts consume nothing: the drained message is lost with
            # the host and the monitor re-queues it from its attempt
            # record. The loop itself keeps draining (rather than exiting)
            # so a later restart() reuses it without racing the
            # thread-liveness check.
            if self.alive:
                self._expand_batch(message)

    def _expand_batch(self, batch) -> None:
        """Hand a batch's calls to their executors, one chaos pre-dispatch
        point per carried call. ``batch.pooled`` work goes to the bounded
        worker pool under one queue lock; everything else gets a thread
        per call — functions may block in ``await_call``, so a chained
        callee must never wait for a worker its own caller occupies."""
        traces = batch.traces or (None,) * len(batch.items)
        accepted: list = []
        for (call_id, attempt), trace in zip(batch.items, traces):
            message = ExecuteCall(
                call_id, attempt, shared=batch.shared, trace=trace
            )
            try:
                self._chaos_point("pre-dispatch", message)
            except HostCrashed:
                # Died mid-expansion: this item and the rest of the batch
                # are lost with the host; the monitor re-queues them. The
                # already-accepted prefix still ships below, exactly as if
                # each item had been enqueued before the crash point.
                break
            if batch.shared:
                self.shared_received += 1
            accepted.append(message)
        work = list(zip(
            self.cluster.calls.get_many([m.call_id for m in accepted]),
            accepted,
        ))
        if batch.pooled:
            if work:
                self._ensure_pool().put_many(work)
            return
        for record, message in work:
            threading.Thread(
                target=self._execute_safely,
                args=(record, message),
                daemon=True,
                name=f"call-{record.call_id}-{record.function}",
            ).start()

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool_queue is None:
                self._pool_queue = _HostQueue()
                n = max(2, self.capacity)
                for i in range(n):
                    thread = threading.Thread(
                        target=self._pool_loop,
                        daemon=True,
                        name=f"pool-{self.host}-{i}",
                    )
                    thread.start()
                    self._pool_threads.append(thread)
            return self._pool_queue

    def _pool_loop(self) -> None:
        while True:
            item = self._pool_queue.get()
            if item is None:
                return
            if not self.alive:
                # Lost with the host, exactly like an undrained bus
                # message: the attempt stays SENT under a dead epoch and
                # the monitor re-queues it elsewhere.
                continue
            record, message = item
            self._execute_safely(record, message)

    def _stop_pool(self) -> None:
        with self._pool_lock:
            if self._pool_queue is None:
                return
            for _ in self._pool_threads:
                self._pool_queue.put(None)

    def pool_backlog(self) -> int:
        """Batch items accepted from the bus but not yet executing."""
        with self._pool_lock:
            queue = self._pool_queue
        return queue.qsize() if queue is not None else 0

    def _chaos_point(self, phase: str, message) -> None:
        """Give the chaos engine (if any) a chance to kill this host."""
        if self.chaos is not None:
            self.chaos.on_phase(self, phase, message.call_id, message.attempt)

    def _execute_safely(self, record, message) -> None:
        calls, attempt = self.cluster.calls, message.attempt
        if not calls.begin_attempt(record.call_id, attempt, self.host):
            # Duplicate delivery, a stale retry, or the call already
            # finished elsewhere — drop it without executing.
            return
        try:
            self._execute_traced(record, message)
        except HostCrashed:
            # Injected host failure: the executor dies with the host; the
            # monitor detects the death and re-queues the call.
            pass
        except StateUnavailableError as exc:
            logger.warning(
                "call %s hit unavailable state tier: %s", record.call_id, exc
            )
            calls.attempt_failed(
                record.call_id, attempt, f"state unavailable: {exc}"
            )
        except Exception as exc:  # never kill the host on a bad call
            logger.exception("call %s crashed the executor", record.call_id)
            calls.complete_attempt(record.call_id, attempt, 1, str(exc).encode())

    def _execute_traced(self, record, message) -> None:
        """Execute under the trace context carried by the bus message.

        Executor threads start with an empty ambient context, so the
        sender's context is re-activated here — the receive-side half of
        cross-host propagation. Without a carried context (tracing off,
        or the trace was unsampled at its root) this is a plain execute.
        """
        wire = message.trace
        if wire is None:
            self.execute(record, message)
            return
        tracer = self.cluster.telemetry.tracer
        with tracer.activate(context_from_wire(wire), host=self.host):
            with span(
                "call.invoke",
                call_id=record.call_id,
                function=record.function,
                shared=bool(message.shared),
            ) as sp:
                sp.set_attr("queue_wait_s", time.perf_counter() - wire[3])
                if message.attempt > 0:
                    sp.set_attr("attempt", message.attempt)
                self.execute(record, message)
                if record.return_code is not None:
                    sp.set_attr("return_code", record.return_code)
                sp.set_attr("cold_start", record.cold_start)

    def join_dispatcher(self, timeout: float = 5.0) -> None:
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
            self._dispatcher = None
        with self._pool_lock:
            threads, self._pool_threads = self._pool_threads, []
        for thread in threads:
            thread.join(timeout)

    # ------------------------------------------------------------------
    # Liveness (host-failure injection and recovery)
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """The host dies: it stops executing, its in-flight completions are
        lost, its liveness epoch ends, and the cluster evicts it from the
        warm sets. Idempotent per life."""
        with self._mutex:
            if not self.alive:
                return
            self.alive = False
            self.epoch += 1
        logger.warning("host %s died (epoch now %d)", self.host, self.epoch)
        self.cluster.on_host_death(self)

    def restart(self) -> None:
        """Bring a dead host back empty (warm pools and in-flight state
        died with the previous life); the already-advanced epoch keeps the
        old life's attempts detectable as lost."""
        with self._mutex:
            if self.alive:
                return
            self._warm.clear()
            self._executing = 0
            self.alive = True
        # The page cache died with the host's memory: restores on this new
        # life re-pull (residency ads were withdrawn by on_host_death).
        self.snapshots.clear()
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = None
            self.start_dispatcher()
        logger.info("host %s restarted (epoch %d)", self.host, self.epoch)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def free_capacity(self) -> int:
        with self._mutex:
            return max(0, self.capacity - self._executing)

    def executing(self) -> int:
        """Calls currently running on this host."""
        with self._mutex:
            return self._executing

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, record: CallRecord, message) -> None:
        """Execute attempt ``message.attempt`` of a call on this host (runs
        on the caller's thread, which has already claimed the attempt)."""
        definition = self.cluster.registry.get(record.function)
        with self._mutex:
            self._executing += 1
        try:
            if isinstance(definition, PythonFunctionDefinition):
                self._execute_python(record, definition, message)
            else:
                self._execute_wasm(record, definition, message)
        finally:
            with self._mutex:
                self._executing -= 1

    def _complete(self, record: CallRecord, message, code: int, output: bytes) -> None:
        """Write the call's completion — unless this host died meanwhile
        (a dead host's completions are lost, like the paper's crashed
        worker never answering the message bus)."""
        if self.alive:
            self.cluster.calls.complete_attempt(
                record.call_id, message.attempt, code, output
            )

    def _execute_python(self, record: CallRecord, definition, message) -> None:
        self.cluster.calls.mark_running(record.call_id, self.host, cold_start=False)
        self.metrics.record_call()
        self._chaos_point("mid-guest", message)
        ctx = PythonCallContext(self.env, record.input_data)
        try:
            with span("guest.exec", function=record.function, runtime="python"):
                result = definition.fn(ctx)
            code = int(result) if isinstance(result, int) else 0
            self._chaos_point("pre-complete", message)
            self._complete(record, message, code, ctx.output)
        except (HostCrashed, StateUnavailableError):
            raise  # infrastructure failures are the retry plane's business
        except Exception as exc:  # guest failure must not kill the host
            logger.exception("python guest %s failed", record.function)
            self._complete(record, message, 1, str(exc).encode())

    def _execute_wasm(
        self, record: CallRecord, definition: FunctionDefinition, message
    ) -> None:
        faaslet, cold = self._acquire_faaslet(definition)
        self.cluster.calls.mark_running(record.call_id, self.host, cold_start=cold)
        self.metrics.record_call()
        try:
            self._chaos_point("mid-guest", message)
            code, output = faaslet.call(record.input_data)
            self._chaos_point("pre-complete", message)
            self._complete(record, message, code, output)
        finally:
            self._release_faaslet(definition.name, faaslet)

    def _tap_profiler(self, faaslet: Faaslet, function: str) -> None:
        """Attach the continuous profiler's tap (when one is enabled) so
        the Faaslet's guest calls feed the per-function flamegraph."""
        profiler = self.cluster.telemetry.profiler
        if profiler is not None:
            profiler.attach(faaslet.instance, function)

    def _acquire_faaslet(self, definition: FunctionDefinition) -> tuple[Faaslet, bool]:
        with self._mutex:
            pool = self._warm.get(definition.name)
            if pool:
                self.metrics.record_warm_hit()
                with span("faaslet.acquire", function=definition.name) as sp:
                    sp.set_attr("mode", "warm")
                faaslet = pool.pop()
                self._tap_profiler(faaslet, definition.name)
                return faaslet, False
        # Cold start: restore from the Proto-Faaslet when one exists. The
        # snapshot client pulls (only) the pages this host is missing and
        # materialises a proto aliasing the host PageStore.
        with span("faaslet.acquire", function=definition.name) as sp:
            start = time.perf_counter()
            proto = self.snapshots.get_proto(definition)
            if proto is not None:
                sp.set_attr("mode", "proto-restore")
                faaslet = proto.restore(self.env)
            else:
                sp.set_attr("mode", "cold-boot")
                faaslet = Faaslet(definition, self.env)
            self.metrics.record_cold_start(time.perf_counter() - start)
        self.cgroup.add_member(faaslet.name)
        self._tap_profiler(faaslet, definition.name)
        return faaslet, True

    def _release_faaslet(self, function: str, faaslet: Faaslet) -> None:
        self.cgroup.charge(faaslet.name, faaslet.instance.instructions_executed)
        if self.reset_between_calls and faaslet.proto is not None:
            faaslet.reset()
        with self._mutex:
            self._warm.setdefault(function, []).append(faaslet)

    # ------------------------------------------------------------------
    # Pre-warming (scale-up ahead of traffic)
    # ------------------------------------------------------------------
    def pre_warm(self, function: str, count: int = 1) -> int:
        """Provision ``count`` warm Faaslets for ``function`` before any
        traffic arrives, registering this host in the shared warm set.
        Returns the number actually added."""
        definition = self.cluster.registry.get(function)
        if isinstance(definition, PythonFunctionDefinition):
            return 0  # Python guests have no per-instance isolation unit
        proto = self.snapshots.get_proto(definition)
        added = 0
        for _ in range(count):
            # Always create fresh instances (acquire would just recycle the
            # pool's existing idle Faaslet).
            if proto is not None:
                faaslet = proto.restore(self.env)
            else:
                faaslet = Faaslet(definition, self.env)
            self.cgroup.add_member(faaslet.name)
            self._tap_profiler(faaslet, function)
            with self._mutex:
                self._warm.setdefault(function, []).append(faaslet)
            added += 1
        if added:
            self.cluster.warm_sets.add(function, self.host)
        return added

    # ------------------------------------------------------------------
    # Pool reclamation (scale-to-zero)
    # ------------------------------------------------------------------
    def reclaim_idle(self, keep_per_function: int = 0) -> int:
        """Tear down idle warm Faaslets beyond ``keep_per_function``.

        The autoscaler's scale-down path: reclaimed Faaslets release their
        memory and cgroup membership, and a function whose local pool drops
        to zero is withdrawn from the shared warm set so other schedulers
        stop sharing work here (§5.1). Returns the number reclaimed.
        """
        reclaimed = 0
        with self._mutex:
            for function, pool in list(self._warm.items()):
                while len(pool) > keep_per_function:
                    faaslet = pool.pop()
                    self.cgroup.remove_member(faaslet.name)
                    reclaimed += 1
                if not pool:
                    del self._warm[function]
                    self.cluster.warm_sets.remove(function, self.host)
        return reclaimed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def warm_functions(self) -> list[str]:
        with self._mutex:
            return sorted(name for name, pool in self._warm.items() if pool)

    def warm_count(self, function: str) -> int:
        with self._mutex:
            return len(self._warm.get(function, []))

    def memory_footprint(self) -> int:
        """Private Faaslet memory + local-tier shared memory on this host."""
        with self._mutex:
            faaslets = [f for pool in self._warm.values() for f in pool]
        return sum(f.memory_footprint() for f in faaslets) + self.local_tier.memory_bytes()
