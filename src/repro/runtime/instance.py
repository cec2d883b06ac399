"""A FAASM runtime instance: one per host (§5, Fig. 5).

Each instance owns a pool of Faaslets (a warm one is reset to its
Proto-Faaslet and reused), a local scheduler, the host's local state tier, a
metered connection to the global tier and the standing workers that run its
calls. Calls arrive from the front door or from other instances (work
sharing); chained calls re-enter the cluster through its environment.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque

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

from .bus import ExecuteCall, Shutdown
from .calls import CallRecord
from .pyguest import PythonCallContext
from .registry import PythonFunctionDefinition
from .scheduler import LocalScheduler

logger = logging.getLogger(__name__)

#: Default number of concurrent calls a host accepts (the scheduler's signal).
DEFAULT_CAPACITY = 8

#: Workers a host keeps however idle it is: its free workers wait on the
#: bus itself up to this many (the rest sleep until summoned).
WORKER_FLOOR = 2
#: A worker above the floor retires after this long with nothing to do.
WORKER_IDLE_S = 1.0
_BUS = object()  # ``_take``'s answer for "go and hold a bus seat"


class HostCrashed(RuntimeError):
    """An injected host failure: the host this code runs on just died.
    Raised by a chaos engine's phase hooks after it has killed the host;
    workers let it unwind — whatever they were doing is lost with the host,
    and the monitor re-queues the affected calls from their attempt records."""


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
    registry (labelled ``host=``): ``instance.metrics.cold_starts`` reads
    the series that also aggregates cluster-wide through the registry."""

    def __init__(self, metrics: MetricsRegistry | None = None, host: str = ""):
        # `is None`, not truthiness: an empty registry has len() == 0.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._calls = metrics.counter("instance.calls_executed", host=host)
        self._cold = metrics.counter("instance.cold_starts", host=host)
        self._warm = metrics.counter("instance.warm_hits", host=host)
        self._init = metrics.histogram("instance.init_time", host=host)
        #: Threads ever started / alive now (they never move per call).
        self.workers_born = metrics.counter("instance.workers_born", host=host)
        self.workers = metrics.gauge("instance.workers", host=host)

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
    ):
        self.host = host
        self.cluster = cluster
        self.capacity = capacity

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
            live_fn=cluster.placement_ok,
            peers_fn=cluster.live_hosts,
        )

        #: The content-addressed snapshot client: this host's PageStore
        #: plus the delta-pull protocol against the cluster repository;
        #: materialised snapshots advertise page residency to the shared
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
        #: The worker set (below), guarded by ``_lock``; idle workers beyond
        #: the bus seats sleep on it through ``_cv``. ``_handoff`` / ``_backlog``
        #: hold what was accepted and is not yet executing, as ``(record,
        #: message, pooled)``: unpooled calls handed to a sibling, pooled
        #: ones waiting (``_pooled`` of them execute now).
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._workers: list[threading.Thread] = []
        self._idle = 0  # asleep on _cv, or woken / born and not yet run
        self._receiving = 0  # in, or heading for, bus.receive
        self._stopped = False
        self._handoff, self._backlog = deque(), deque()
        self._pooled, self._pooled_max = 0, max(2, capacity)
        #: Graceful retirement: a draining host finishes its in-flight
        #: work but receives no new placements (the autoscaler's shrink
        #: path); distinct from ``alive`` so the invocation monitor does
        #: not write its in-flight attempts off.
        self.draining = False
        #: Liveness: a dead host executes nothing and completes nothing.
        #: The epoch advances on every death, so attempt records dispatched
        #: to a previous life are detectable as lost (Fig. 5's independent
        #: host-failure assumption).
        self.alive = True
        self.epoch = 0
        #: Fault-injection hooks (a ChaosEngine), or None in production.
        self.chaos = cluster.chaos

    @property
    def shared_received(self) -> int:
        """Calls delivered here that another host placed (the bus counts)."""
        counters = self.cluster.bus.metrics
        return counters.counter("bus.shared_calls", host=self.host).value

    # ------------------------------------------------------------------
    # Workers: the host's one execution vehicle (Fig. 5). Free workers fill
    # the WORKER_FLOOR bus seats (blocked in ``bus.receive``), the rest
    # sleep on ``_cv``, and the worker that takes a batch off the bus runs
    # it. Four invariants (DESIGN.md §11): (i) an unpooled call never waits
    # for a worker another call occupies — ``_summon`` wakes or starts one;
    # (ii) pooled items run on at most max(2, capacity) workers at once, a
    # pooled batch summons at most one, and ``pool_backlog()`` is what was
    # accepted and is not yet executing; (iii) a dead host consumes nothing
    # (what it meets is dropped, the attempt left SENT); (iv) a worker idle
    # for WORKER_IDLE_S retires (the seats keep the floor), ``Shutdown``
    # stops them all, ``restart()`` restores them.
    # ------------------------------------------------------------------
    def start_dispatcher(self) -> None:
        """Put a first worker on the bus; the rest are born on demand."""
        with self._lock:
            if not self._workers:
                self._stopped = False
                self._summon()

    def _summon(self) -> None:
        """Under ``_lock``, after adding work that must not wait for a busy
        worker (an empty last seat, a handed-off call, a pooled batch
        below the limit): wake a worker for it or, when every idle one is
        spoken for, start one — the only place a host starts a thread."""
        pooled = min(len(self._backlog), self._pooled_max - self._pooled)
        if self._idle >= len(self._handoff) + (not self._receiving) + pooled:
            self._cv.notify()
            return
        self.metrics.workers_born.inc()
        worker = threading.Thread(
            target=self._work, daemon=True,
            name=f"worker-{self.host}-{self.metrics.workers_born.value}",
        )
        self._workers.append(worker)
        self.metrics.workers.set(len(self._workers))
        self._idle += 1  # spoken for, like a woken sleeper, until it runs
        worker.start()

    def _take(self):
        """Under ``_lock``: what a free worker does next — a handed-off
        call, a bus seat (``_BUS``), a pooled item — or None. The first
        seat comes before the backlog, the backlog before the others."""
        if self._handoff:
            return self._handoff.popleft()
        # A stopped host's seats all read as taken.
        seated = WORKER_FLOOR if self._stopped else self._receiving
        if seated and self._backlog and self._pooled < self._pooled_max:
            self._pooled += 1
            return self._backlog.popleft()
        if seated < WORKER_FLOOR:
            self._receiving += 1
            return _BUS
        return None

    def _work(self) -> None:
        """A worker's life: take, run, and sleep when there is nothing."""
        job, expired = None, False
        with self._lock:
            self._idle -= 1
        try:
            while True:
                with self._lock:
                    if job is not None and job[2]:
                        self._pooled -= 1
                    while (job := self._take()) is None:
                        if expired or self._stopped:
                            return
                        self._idle += 1
                        expired = not self._cv.wait(WORKER_IDLE_S)
                        self._idle -= 1
                expired = False
                while job is _BUS:
                    job = self._receive()
                if job is not None and self.alive:
                    self._execute_safely(job[0], job[1])
        finally:
            with self._lock:
                self._workers.remove(threading.current_thread())
                self.metrics.workers.set(len(self._workers))

    def _receive(self):
        """Take one message off the bus, refill the seat if it was the
        last, hand what the message carries to siblings, and return this
        worker's next job."""
        message = self.cluster.bus.receive(self.host)
        stop = isinstance(message, Shutdown)
        with self._lock:
            self._receiving -= 1
            if stop:
                self._stopped = True
                self._cv.notify_all()
            elif not (self._receiving or self._stopped):
                self._summon()
            seated = self._receiving
        if stop and seated:  # one Shutdown per host: pass it along the seats
            self.cluster.bus.send(self.host, message)
        if not stop and self.cluster._ingest is not None:
            self.cluster._ingest.serve()  # a message's taker serves first
        if stop or not self.alive:
            return None
        work = self._expand_batch(message)
        if len(work) == 1 and not message.pooled:
            return work[0]  # the warm path: nothing to hand off
        with self._lock:
            if message.pooled:
                # ``_take`` keeps FIFO and the limit; a batch of one needs
                # no helper when this worker can run it itself.
                self._backlog.extend(work)
                if len(self._backlog) > 1:
                    self._summon()
                return self._take()
            for item in work[1:]:
                self._handoff.append(item)
                self._summon()
        return work[0] if work else None

    def _expand_batch(self, batch) -> list:
        """The batch as ``(record, message, pooled)`` items: one chaos
        pre-dispatch point per carried call, one registry hold."""
        traces = batch.traces or (None,) * len(batch.items)
        accepted: list = []
        for (call_id, attempt), trace in zip(batch.items, traces):
            message = ExecuteCall(call_id, attempt, batch.shared, trace)
            try:
                self._chaos_point("pre-dispatch", message)
            except HostCrashed:
                # Died mid-expansion: this item and the rest are lost (the
                # monitor re-queues them); the accepted prefix still ships.
                break
            accepted.append(message)
        records = self.cluster.calls.get_many([m.call_id for m in accepted])
        return [(r, m, batch.pooled) for r, m in zip(records, accepted)]

    def pool_backlog(self) -> int:
        """Batch items accepted from the bus but not yet executing."""
        return len(self._handoff) + len(self._backlog)

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
                record.call_id, attempt, f"state unavailable: {exc}",
                self.cluster.monitor.retry_time(attempt),
            )
        except Exception as exc:  # never kill the host on a bad call
            logger.exception("call %s crashed the executor", record.call_id)
            self.cluster.telemetry.metrics.counter(
                "errors.swallowed", site="instance.execute"
            ).inc()
            calls.complete_attempt(record.call_id, attempt, 1, str(exc).encode())

    def _execute_traced(self, record, message) -> None:
        """Execute under the trace context carried by the bus message:
        workers have no ambient context, so the sender's is re-activated
        here — the receive-side half of cross-host propagation. Without one
        (tracing off, or unsampled at its root) this is a plain execute."""
        wire = message.trace
        if wire is None:
            self.execute(record, message)
            return
        tracer = self.cluster.telemetry.tracer
        ctx = context_from_wire(wire)
        with tracer.activate(ctx, self.host, record.function):
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
        """Join every worker; ``timeout`` bounds the whole wait (a worker
        still inside a guest is left to finish on its own)."""
        deadline = time.monotonic() + timeout
        for worker in list(self._workers):
            worker.join(max(0.0, deadline - time.monotonic()))

    # ------------------------------------------------------------------
    # Liveness (host-failure injection and recovery)
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """The host dies: its in-flight completions are lost, its liveness
        epoch ends, the cluster evicts it from the warm sets. Idempotent."""
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
            for pool in self._warm.values():
                for faaslet in pool:
                    faaslet.close()
            self._warm.clear()
            self._executing = 0
            self.alive = True
        # The page cache died too (on_host_death withdrew its residency ads).
        self.snapshots.clear()
        self.start_dispatcher()
        logger.info("host %s restarted (epoch %d)", self.host, self.epoch)

    # ------------------------------------------------------------------
    # Capacity and execution
    # ------------------------------------------------------------------
    def free_capacity(self) -> int:
        with self._mutex:
            return max(0, self.capacity - self._executing)

    def executing(self) -> int:
        """Calls currently running on this host."""
        with self._mutex:
            return self._executing

    def execute(self, record: CallRecord, message) -> None:
        """Execute attempt ``message.attempt`` of a call on this host, on
        the calling worker (which has already claimed the attempt)."""
        definition = self.cluster.registry.get(record.function)
        with self._mutex:
            epoch = self.epoch
            self._executing += 1
        try:
            if isinstance(definition, PythonFunctionDefinition):
                self._execute_python(record, definition, message)
            else:
                self._execute_wasm(record, definition, message)
        finally:
            with self._mutex:
                # The count belongs to a life, not to a guest that outlives it.
                if self.epoch == epoch:
                    self._executing -= 1

    def _complete(self, record: CallRecord, message, code: int, output: bytes) -> None:
        """Write the call's completion — unless this host died meanwhile
        (like the paper's crashed worker never answering the bus)."""
        if self.alive:
            self.cluster.calls.complete_attempt(
                record.call_id, message.attempt, code, output
            )

    def _execute_python(self, record: CallRecord, definition, message) -> None:
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
        faaslet, record.cold_start = self._acquire_faaslet(definition)
        self.metrics.record_call()
        try:
            self._chaos_point("mid-guest", message)
            code, output = faaslet.call(record.input_data)
            self._chaos_point("pre-complete", message)
            self._complete(record, message, code, output)
        finally:
            self._release_faaslet(definition.name, faaslet)

    def _tap_profiler(self, faaslet: Faaslet, function: str) -> None:
        """Feed the continuous profiler (when enabled) this Faaslet's calls."""
        profiler = self.cluster.telemetry.profiler
        if profiler is not None:
            profiler.attach(faaslet.instance, function)

    def _acquire_faaslet(self, definition: FunctionDefinition) -> tuple[Faaslet, bool]:
        with self._mutex:
            pool = self._warm.get(definition.name)
            faaslet = pool.pop() if pool else None
        if faaslet is not None:
            # Reset here, not on release: a Faaslet reclaimed first never pays.
            self.metrics.record_warm_hit()
            with span("faaslet.acquire", function=definition.name) as sp:
                sp.set_attr("mode", "warm")
                faaslet.reset()
            self._tap_profiler(faaslet, definition.name)
            return faaslet, False
        # Cold start: restore from the Proto-Faaslet when one exists (the
        # snapshot client pulls only the pages this host is missing).
        with span("faaslet.acquire", function=definition.name) as sp:
            start = time.perf_counter()
            proto = self.snapshots.get_proto(definition)
            sp.set_attr("mode", "proto-restore" if proto is not None else "cold-boot")
            faaslet = self._new_faaslet(definition, proto)
            self.metrics.record_cold_start(time.perf_counter() - start)
        return faaslet, True

    def _new_faaslet(self, definition: FunctionDefinition, proto) -> Faaslet:
        faaslet = (
            proto.restore(self.env) if proto is not None
            else Faaslet(definition, self.env)
        )
        self.cgroup.add_member(faaslet.name)
        self._tap_profiler(faaslet, definition.name)
        return faaslet

    def _release_faaslet(self, function: str, faaslet: Faaslet) -> None:
        self.cgroup.charge(faaslet.name, faaslet.fuel_consumed)
        if faaslet.proto is None:  # nothing to reset it from: one call only
            self.cgroup.remove_member(faaslet.name)
            faaslet.close()
            return
        with self._mutex:
            self._warm.setdefault(function, []).append(faaslet)

    # ------------------------------------------------------------------
    # Pre-warming (scale-up ahead of traffic)
    # ------------------------------------------------------------------
    def pre_warm(self, function: str, count: int = 1) -> int:
        """Provision ``count`` warm Faaslets for ``function`` ahead of
        traffic and join the shared warm set; returns the number added."""
        definition = self.cluster.registry.get(function)
        if isinstance(definition, PythonFunctionDefinition):
            return 0  # Python guests have no per-instance isolation unit
        proto = self.snapshots.get_proto(definition)
        if proto is None:
            return 0  # a Faaslet without a snapshot is never pooled
        added = 0
        for _ in range(count):
            # Always create fresh instances (acquire would just recycle the
            # pool's existing idle Faaslet).
            faaslet = self._new_faaslet(definition, proto)
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
        """Tear down idle warm Faaslets beyond ``keep_per_function`` (the
        autoscaler's scale-down path): they release memory and cgroup
        membership, and a function whose local pool drops to zero leaves
        the shared warm set so other schedulers stop sharing work here
        (§5.1). Returns the number reclaimed."""
        reclaimed = 0
        with self._mutex:
            for function, pool in list(self._warm.items()):
                while len(pool) > keep_per_function:
                    faaslet = pool.pop()
                    self.cgroup.remove_member(faaslet.name)
                    faaslet.close()
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
